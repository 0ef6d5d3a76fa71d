"""Only ``cells`` reduces ceiling vectors to their class representatives.

A ceiling vector gets its class in one home: ``cells.chamber_gate`` for a
vector a user gives, ``cells.class_of`` for one the engine derives.  Both
reduce by the pairing lattice's HNF pivots through
``ratgeom.reduce_by_pivots``, so no other module of ``src/conic`` calls
or imports it; ``ratgeom`` defines it, and its ``reduce_mod_hnf`` wraps
it.  Lattice witnesses come from the same home: ``cells._preimage``
reduces a pairing vector by the same pivots, with the quotients it needs
to combine the kept preimages of the HNF rows, so ``class_of`` keeps a
reduction that tracks no quotient.
"""

import ast
from pathlib import Path

import pytest

import conic

NAME = "reduce_by_pivots"
HOMES = {"cells.py", "ratgeom.py"}
MODULES = sorted(p for p in Path(conic.__file__).parent.glob("*.py")
                 if p.name not in HOMES)


def _uses(source: str) -> list[int]:
    """The lines of source that call or import ``reduce_by_pivots``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            if name == NAME:
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if any(alias.name == NAME for alias in node.names):
                lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_cells_reduces_by_pivots(path):
    assert _uses(path.read_text()) == []


def test_a_reduction_elsewhere_is_found():
    source = ("from .ratgeom import reduce_by_pivots as reduce\n"
              "from . import ratgeom\n"
              "def f(c, pivots):\n"
              "    return ratgeom.reduce_by_pivots(c, pivots), reduce(c, pivots)\n"
              "def g(c):\n"
              "    return ratgeom.reduce_mod_hnf(c, ())\n")
    assert _uses(source) == [1, 4]
