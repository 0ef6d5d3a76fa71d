"""Every name a module of the package imports is read somewhere in it.

``__init__.py`` is left out: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

import conic

MODULES = sorted(p for p in Path(conic.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    assert _unused_imports(
        "from operator import mul, neg\nimport os.path\nprint(mul)\n") == ["neg", "os"]
