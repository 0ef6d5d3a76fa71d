"""Ceiling vectors are gated once, at the public boundary.

``verify_acyclicity``, ``resolution``, ``conic_complex`` and
``hom_is_conic`` gate their arguments (``cells.chamber_gate``), then
call an internal form that takes gated values: ``_acyclicity``,
``_resolution``, ``_complex`` and ``homs._conic_hom``.  Package code
calls only the internal forms, on class representatives from the walk,
so the gate's work does not grow with the class count: the CLI's
acyclicity table makes no gate call, and a partial-support NCCR verdict
gates its support once and then one difference vector per hom pair.
Only ``cli_io`` calls the public forms, for vectors a user gives.
"""

import ast
from pathlib import Path

import pytest

import conic
from conic import cells
from conic.chambers import enumerate_classes
from conic.cli_io import _acyclicity_rows
from conic.complexes import nccr_verdict

PUBLIC = {"verify_acyclicity", "resolution", "conic_complex", "hom_is_conic"}
MODULES = sorted(p for p in Path(conic.__file__).parent.glob("*.py")
                 if p.name != "cli_io.py")


def _calls(source: str) -> list[int]:
    """The lines of source that call a gated public entry point, or
    import something inside a function."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            if name in PUBLIC:
                lines.append(node.lineno)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lines.extend(inner.lineno for inner in ast.walk(node)
                         if isinstance(inner, (ast.Import, ast.ImportFrom)))
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_code_calls_internal_forms(path):
    assert _calls(path.read_text()) == []


def test_a_public_call_inside_the_package_is_found():
    source = ("from . import homs\n"
              "from .complexes import resolution\n"
              "def f(spec, a, b):\n"
              "    from .homs import hom_is_conic\n"
              "    return resolution(spec, [a], a), homs.hom_is_conic(spec, a, b)\n"
              "def g(spec, a):\n"
              "    return _resolution(spec, (a,), a)\n")
    assert _calls(source) == [4, 5, 5]


@pytest.fixture
def gate_calls(monkeypatch):
    # every call of the gate, through cells.ceiling_vector
    calls = []
    real = cells.ceiling_vector
    monkeypatch.setattr(cells, "ceiling_vector",
                        lambda spec, c: calls.append(c) or real(spec, c))
    return calls


@pytest.mark.parametrize("name", ["square", "pentagon", "hexagon"])
def test_acyclicity_table_makes_no_gate_call(name, request, gate_calls):
    spec = request.getfixturevalue(name)
    classes = enumerate_classes(spec)
    rows = _acyclicity_rows(spec, classes, None)
    assert len(rows) == len(classes.reps) ** 2
    assert all(r["passed"] for r in rows)
    assert gate_calls == []


def test_nccr_verdict_gates_the_support_once(square, hexagon, gate_calls):
    # the square with {A0, A1}: its two vectors, then the four ordered
    # hom pairs' difference vectors
    classes = enumerate_classes(square)
    support = [classes.rep_of("A0"), classes.rep_of("A1")]
    assert nccr_verdict(square, support).verdict == "NCCR"
    assert len(gate_calls) == 6
    assert gate_calls[:2] == support
    # the hexagon with every class but A1: one gate call per class, and a
    # short resolution ends the verdict before any hom pair
    gate_calls.clear()
    classes = enumerate_classes(hexagon)
    support = [r for r in classes.reps if r != classes.rep_of("A1")]
    assert nccr_verdict(hexagon, support).verdict == "NotNCCR"
    assert len(gate_calls) == len(support) == 22
