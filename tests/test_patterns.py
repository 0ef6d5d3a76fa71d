"""Per-class answers read off the shared cell pattern.

A class representative's entry in ``cells.class_pattern`` is its cell
pattern, the (omega, codim) of each cell, and every class with one set
of box vertex tight masks holds the same pattern object
(``cells._pattern``).  The census, ``pdim_simple``, ``has_zero_cell``
and ``smith_invariants`` read the pattern, and a window pass reads the
same slices for every chamber of one pattern, so a plain ``analyze``
builds no chamber complex.  Here those answers are
checked against the complexes themselves and the Smith forms of their
differentials, and the pattern's own self-checks against patterns made
wrong on purpose.
"""

import hashlib
import tracemalloc
from collections import Counter, defaultdict

import pytest

from conic import (
    cell_census,
    cells,
    chambers,
    cli_io,
    complexes,
    conic_complex,
    enumerate_classes,
    from_normals,
    has_zero_cell,
    pdim_simple,
    ratgeom,
    smith_invariants,
    verify_acyclicity,
)
from conic.cells import class_pattern
from conic.cli_io import analyze, serialize_report
from conic.errors import InternalInvariantError
from conic.ratgeom import smith_normal_form

from acyclicity_oracle import oracle_verify, slices_of, tail_sets, window_pass
from test_cli import CONE_A
from test_census import RANK5_CONES
from test_cone import FIXTURES
from test_walk import _cones, _fresh

# Cone R5 of ROADMAP.md: a cone over a lattice polytope with vertices in
# {-1, 0, 1}^4, its class and pattern counts and the sha256 of its
# `conic analyze --json` report, recorded before the per-class cells
# left the store.
CONE_R5 = (5, [(-1, -5, -3, 1, 3), (-1, -4, -2, 0, 3), (-1, -1, -1, 1, 1),
               (-1, 2, 1, 0, 0), (-1, 6, 3, -1, -1), (0, 1, 0, 0, 0),
               (0, 1, 1, 0, 0), (1, -1, 1, 1, 1), (1, 0, 2, 0, 1),
               (1, 1, -1, -1, 1), (1, 4, 2, -4, 1)])
R5_CLASSES, R5_PATTERNS = 6048, 570
R5_REPORT = "ab7435333902ef42005f027aa0a839f213ad3337b1386fcffe2b523834c206e0"


def test_cone_r5_is_draw_6_of_the_rank5_census():
    assert RANK5_CONES[6].normals == tuple(map(tuple, CONE_R5[1]))


def test_pattern_answers_match_the_complex(request):
    for name, spec in _cones(request).items():
        fresh = _fresh(spec)
        reps = enumerate_classes(fresh).reps
        got = [(cell_census(fresh, rep), pdim_simple(fresh, rep),
                has_zero_cell(fresh, rep), smith_invariants(fresh, rep))
               for rep in reps]
        assert not fresh._store.get(complexes._differentials), name
        for rep, answers in zip(reps, got):
            cx = conic_complex(fresh, rep)
            want = (
                {k: len(row) for k, row in enumerate(cx.terms) if row},
                len(cx.terms) - 1,
                any(cell.codim == spec.rank for row in cx.cells for cell in row),
                tuple(smith_normal_form(m) for m in cx.mats))
            assert answers == want, (name, rep)


@pytest.mark.parametrize("name", FIXTURES)
def test_plain_analyze_builds_no_complex(request, name, monkeypatch):
    # nor any differential or Smith form: the smith block is a theorem
    fresh = _fresh(request.getfixturevalue(name))
    calls = []
    monkeypatch.setattr(ratgeom, "smith_normal_form",
                        lambda rows: calls.append(rows) or smith_normal_form(rows))
    analyze(fresh)
    assert not fresh._store.get(complexes._differentials)
    assert calls == []


@pytest.mark.parametrize("name", FIXTURES + ("cone_a",))
def test_plain_analyze_gates_each_class_at_most_once(request, name, monkeypatch):
    # the representatives are chambers, so analyze reads each class's
    # pattern straight from the table and gates no class twice
    spec = (from_normals(*CONE_A) if name == "cone_a"
            else _fresh(request.getfixturevalue(name)))
    real = cells.chamber_gate
    gated = []

    def counted(spec, c):
        gate = real(spec, c)
        gated.append(gate[1])
        return gate

    for module in (cells, chambers, cli_io):
        monkeypatch.setattr(module, "chamber_gate", counted)
    analyze(spec)
    reps = enumerate_classes(spec).reps
    assert len(gated) <= len(reps)
    assert max(Counter(gated).values(), default=0) <= 1


def _with_face_cell(monkeypatch, change):
    real = cells._face_cell
    monkeypatch.setattr(cells, "_face_cell",
                        lambda spec, face: change(*real(spec, face)))


def test_pattern_without_an_open_cell_is_an_internal_error(square, monkeypatch):
    _with_face_cell(monkeypatch, lambda codim, omega: (codim or 1, omega))
    with pytest.raises(InternalInvariantError, match="unique interior cell"):
        enumerate_classes(_fresh(square))


def test_open_cell_pinning_an_index_is_an_internal_error(square, monkeypatch):
    _with_face_cell(monkeypatch,
                    lambda codim, omega: (codim, omega[1:] if codim == 0 else omega))
    with pytest.raises(InternalInvariantError, match="differs from the chamber"):
        class_pattern(_fresh(square), (0, 0, 0, 0))


def test_census_with_nonzero_euler_characteristic_is_an_internal_error(
        square, monkeypatch):
    # every codim-1 cell moved to codim 2 keeps the one open cell
    _with_face_cell(monkeypatch,
                    lambda codim, omega: (2 if codim == 1 else codim, omega))
    with pytest.raises(InternalInvariantError, match="Euler characteristic"):
        class_pattern(_fresh(square), (0, 0, 0, 0))


def test_slice_ranks_are_shared_by_pattern(pentagon):
    # chambers with one pattern have equal slices, so their window passes
    # read and fill one rank table; the passes and the reports read off
    # the exactness proof agree with the per-point oracle
    spec = _fresh(pentagon)
    reps = enumerate_classes(spec).reps
    by_pattern = defaultdict(list)
    for rep in reps:
        by_pattern[class_pattern(spec, rep)].append(rep)
    shared = [group for group in by_pattern.values() if len(group) > 1]
    assert shared
    for group in shared:
        slices = slices_of(conic_complex(spec, group[0]))
        for a in group:
            cx = conic_complex(spec, a)
            assert slices_of(cx)[:2] == slices[:2]
            for b in reps:
                for radius in (1, 2):
                    want = oracle_verify(spec, cx, b, radius)
                    got = window_pass(spec, a, b, radius, slices,
                                      tail_sets(spec, radius))
                    assert got == want, (a, b)
                    assert verify_acyclicity(spec, a, b, window=radius) == want
        assert slices[2]


def test_cone_r5_pinned():
    spec = from_normals(*CONE_R5)
    reps = enumerate_classes(spec).reps
    assert len(reps) == R5_CLASSES
    assert len({class_pattern(spec, rep) for rep in reps}) == R5_PATTERNS
    report = serialize_report(analyze(spec))
    assert hashlib.sha256(report.encode()).hexdigest() == R5_REPORT


@pytest.mark.slow
def test_walk_peak_is_bounded_by_what_it_keeps():
    # the walk's own memo holds one packed int per mask set, so on R5 its
    # traced peak stays within half again of what the cone keeps after
    # it (frozensets of masks peaked at 3.3 times)
    spec = from_normals(*CONE_R5)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        chambers.enumerate_classes(spec)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= 1.5 * (kept - start)
