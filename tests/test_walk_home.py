"""The class walk has one home, in ``cells``.

One cut loop (``cells._cut``) serves both the class walk and one
chamber's box (``cells.box_vertices``), and the walk (``cells.class_walk``)
fills the class pattern table itself.  So:

- ``cells`` defines no ``_slab``, and ``box_vertices`` has no loop of
  its own;
- ``cone._dd_add_row`` is called only in ``cone.double_description``:
  the walk's cut (``cells._cut``) sweeps each node itself;
- only ``cells`` calls ``class_pattern.keep``;
- ``chambers``, which only labels the walk's classes, imports none of
  ``leaves``, ``_pattern``, ``class_pattern`` or
  ``InternalInvariantError``.
"""

import ast
from pathlib import Path

import pytest

import conic

MODULES = sorted(Path(conic.__file__).parent.glob("*.py"))
DD_STEP_HOMES = {("cone.py", "double_description")}
WALK_NAMES = {"leaves", "_pattern", "class_pattern", "InternalInvariantError"}


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _faults(module: str, source: str) -> list[tuple[str, int]]:
    """(rule, line) for each place where source, the text of the package
    module named module, gives the walk a second home."""
    faults = []
    for stmt in ast.parse(source).body:
        owner = getattr(stmt, "name", None)
        if module == "cells.py" and owner == "_slab":
            faults.append(("_slab", stmt.lineno))
        if module == "cells.py" and owner == "box_vertices":
            faults.extend(("box loop", node.lineno) for node in ast.walk(stmt)
                          if isinstance(node, (ast.For, ast.While)))
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                name = _name(node.func)
                if name == "_dd_add_row" and (module, owner) not in DD_STEP_HOMES:
                    faults.append(("dd step", node.lineno))
                elif (isinstance(node.func, ast.Attribute) and name == "keep"
                      and module != "cells.py"
                      and _name(node.func.value) == "class_pattern"):
                    faults.append(("keep", node.lineno))
            elif isinstance(node, ast.ImportFrom) and module == "chambers.py":
                faults.extend(("import", node.lineno) for alias in node.names
                              if alias.name in WALK_NAMES)
    return faults


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_walk_has_one_home(path):
    assert _faults(path.name, path.read_text()) == []


def test_a_second_home_is_found():
    cells = ("def _slab(rays, masks):\n"
             "    return _dd_add_row(rays, masks, [], 1, 3)\n"
             "def box_vertices(spec, c):\n"
             "    for i in c:\n"
             "        pass\n"
             "def _cut(rays, masks):\n"
             "    class_pattern.keep(None, (), ())\n"
             "    return cone._dd_add_row(rays, masks, [], 1, 3)\n")
    assert _faults("cells.py", cells) == [
        ("_slab", 1), ("dd step", 2), ("box loop", 4), ("dd step", 8)]
    chambers = ("from .cells import _pattern, leaves as walk, box_vertices\n"
                "from .errors import InputError, InternalInvariantError\n"
                "def enumerate_classes(spec):\n"
                "    cells.class_pattern.keep(spec, ((0,),), ())\n"
                "    return keep(spec)\n")
    assert _faults("chambers.py", chambers) == [
        ("import", 1), ("import", 1), ("import", 2), ("keep", 4)]
    cone = ("def double_description(rows, dim):\n"
            "    return _dd_add_row([], [], [], 1, dim)\n"
            "def from_normals(rank, normals):\n"
            "    return _dd_add_row([], [], [], 1, rank)\n")
    assert _faults("cone.py", cone) == [("dd step", 4)]
