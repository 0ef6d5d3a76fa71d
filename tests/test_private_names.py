"""Every module-level private name of the package is read somewhere in it.

A ``_name`` defined at module level in ``src/conic/*.py`` must be read,
as a name or as an attribute, by some module of the package outside
that name's own definition; a helper only its own body calls is dead.
A private name used only by tests counts as unread.
"""

import ast
from pathlib import Path

import pytest

import conic

MODULES = sorted(Path(conic.__file__).parent.glob("*.py"))


def _defined(tree: ast.Module) -> dict[str, ast.stmt]:
    # module-level _names (not dunders) and the statement defining each
    out = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            continue
        out.update((n, stmt) for n in names
                   if n.startswith("_") and not n.startswith("__"))
    return out


def _unreferenced(sources: dict[str, str], module: str) -> list[str]:
    """The private names defined at module level in ``sources[module]``
    that no source reads outside the names' own defining statements."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    defined = _defined(trees[module])
    read = set()
    for name, tree in trees.items():
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    key = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    key = node.attr
                else:
                    continue
                if key in defined and not (name == module and stmt is defined[key]):
                    read.add(key)
    return sorted(set(defined) - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_private_names_are_read(path):
    sources = {p.name: p.read_text() for p in MODULES}
    assert _unreferenced(sources, path.name) == []


def test_unread_private_name_is_found():
    sources = {
        "a.py": ("_TABLE = {}\n_ALIAS: int = 1\n"
                 "def _walk(n):\n    return _walk(n - 1) if n else 0\n"
                 "def _used():\n    return 0\n"),
        "b.py": "from . import a\nfrom .a import _used\nprint(a._ALIAS, _used())\n",
    }
    assert _unreferenced(sources, "a.py") == ["_TABLE", "_walk"]
    assert _unreferenced(sources, "b.py") == []
