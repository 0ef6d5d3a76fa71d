"""End-to-end acceptance checks, one per headline claim.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion with its runtime.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from time import perf_counter

from conic import (
    canonical_class,
    conic_complex,
    decompose_root,
    degree,
    enumerate_cells,
    enumerate_classes,
    from_normals,
    global_dimension,
    has_zero_cell,
    is_adjacent,
    is_feasible,
    leq,
    minimal_complete_q,
    nccr_verdict,
    pdim_simple,
    resolution,
    restrict_to_facet,
    smith_invariants,
    verify_acyclicity,
)
from conic.cli_io import analyze
from conic.ratgeom import EQ, LE, LT, feasible, rank, smith_normal_form, system

from acyclicity_oracle import oracle_verify
from box_census import box_census
from conftest import make_orthant

FREE, X, Y = (0, 0, 0, 0), (0, 0, 0, -1), (0, 0, 0, 1)


def _run(n, name, body, limit):
    t0 = perf_counter()
    try:
        body()
    except BaseException:
        print(f"\nACCEPTANCE {n} ({name}): FAIL")
        raise
    dt = perf_counter() - t0
    print(f"\nACCEPTANCE {n} ({name}): PASS [{dt:.2f}s]")
    assert dt < limit, f"criterion {n} exceeded its {limit}s budget"


def test_criterion_1_quadric(quadric):
    def body():
        cl = enumerate_classes(quadric)
        assert len(cl.reps) == 2
        assert global_dimension(quadric) == 2
        assert nccr_verdict(quadric).verdict == "NCCR"

    _run(1, "two-class quadric cone", body, 1.0)


def test_criterion_2_cone_over_square(square):
    def body():
        cl = enumerate_classes(square)
        assert len(cl.reps) == 3
        assert sorted(pdim_simple(square, r) for r in cl.reps) == [2, 2, 3]
        assert global_dimension(square) == 3
        full = nccr_verdict(square)
        assert full.verdict == "NotNCCR"
        assert full.witness is not None
        assert not has_zero_cell(square, full.witness)
        octa = conic_complex(square, FREE)
        assert [len(row) for row in octa.terms] == [1, 4, 4, 1]
        mid = sorted(canonical_class(square, t) for t in octa.terms[1])
        assert mid == [X, X, Y, Y]
        for rep in (X, Y):
            assert [len(row) for row in conic_complex(square, rep).terms] \
                == [1, 2, 1]
        partial = nccr_verdict(square, support=[FREE, X])
        assert partial.verdict == "NCCR"
        r_x = resolution(square, [FREE, X], X)
        assert r_x.terms == (
            ((X, 1),), ((FREE, 2),), ((FREE, 2),), ((X, 1),))
        # corrected shape: the middle degrees carry six summands, not
        # five; five fails the per-class Euler count (see the decisions
        # ledger) while six gives the exact resolution checked below
        r_0 = resolution(square, [FREE, X], FREE)
        assert r_0.terms == (
            ((FREE, 1),), ((X, 2), (FREE, 4)), ((X, 2), (FREE, 4)),
            ((FREE, 1),))
        assert r_x.validated_radius is not None
        assert r_0.validated_radius is not None
        # point by point, both spliced resolutions have the windows of
        # their chamber complexes against the support's classes
        for own, rpt in ((X, r_x), (FREE, r_0)):
            for cp in (FREE, X):
                assert oracle_verify(square, rpt.complex, cp, 2) == \
                    verify_acyclicity(square, own, cp, window=2)

    _run(2, "cone over the square (middle shape corrected, see ledger)",
         body, 10.0)


def test_criterion_3_cyclic_quotient(cyclic):
    def body():
        cl = enumerate_classes(cyclic)
        assert len(cl.reps) == 3
        for rep in cl.reps:
            cx = conic_complex(cyclic, rep)
            assert [len(row) for row in cx.terms] == [1, 2, 1]
            assert canonical_class(cyclic, cx.terms[0][0]) == rep
            assert canonical_class(cyclic, cx.terms[2][0]) == rep
            middle = {canonical_class(cyclic, t) for t in cx.terms[1]}
            assert middle == set(cl.reps) - {rep}
            assert pdim_simple(cyclic, rep) == 2
        assert nccr_verdict(cyclic).verdict == "NCCR"

    _run(3, "cyclic quotient of order three", body, 1.0)


def test_criterion_4_acyclicity_suite(quadric, square, cyclic):
    specs = [quadric, square, cyclic, make_orthant(2), make_orthant(3)]

    def body():
        for spec in specs:
            reps = enumerate_classes(spec).reps
            for a in reps:
                for b in reps:
                    rpt = verify_acyclicity(spec, a, b)
                    assert rpt.failures == (), (spec.normals, a, b)
                    assert rpt.passed

    _run(4, "acyclicity on default windows", body, 120.0)


def test_criterion_5_structural_invariants(quadric, square, cyclic):
    specs = [quadric, square, cyclic, make_orthant(2), make_orthant(3)]

    def body():
        for spec in specs:
            cl = enumerate_classes(spec)
            census = box_census(spec)
            assert len(census) == len(cl.reps)
            assert {canonical_class(spec, c) for c in census} == set(cl.reps)
            for rep in cl.reps:
                mats = conic_complex(spec, rep).mats
                for a, b in zip(mats, mats[1:]):
                    cols = len(b[0]) if b else 0
                    for i in range(len(a)):
                        for j in range(cols):
                            assert sum(a[i][k] * b[k][j]
                                       for k in range(len(b))) == 0
        # inclusion tightens degree by at least one, and covers are
        # exactly the degree-one drops, which are exactly adjacencies
        for spec in (quadric, cyclic):
            cs = [c for c in product(range(-2, 3), repeat=2)
                  if is_feasible(spec, c)]
            for a in cs:
                for b in cs:
                    if a == b or not leq(spec, a, b):
                        continue
                    gap = degree(b) - degree(a)
                    assert gap >= 1
                    between = any(
                        c != a and c != b and leq(spec, a, c)
                        and leq(spec, c, b) for c in cs)
                    assert (gap == 1) == (not between)
                    assert is_adjacent(spec, a, b) == (gap == 1)
        # every chamber complex is exact over Z, so no class has a
        # nontrivial elementary divisor: the matrices' Smith forms are all
        # 1, and they are what smith_invariants reads off the census
        for spec in specs:
            for rep in enumerate_classes(spec).reps:
                invs = tuple(smith_normal_form(m)
                             for m in conic_complex(spec, rep).mats)
                assert all(x == 1 for row in invs for x in row), (
                    spec.normals, rep, invs)
                assert invs == smith_invariants(spec, rep), (spec.normals, rep)

    _run(5, "structural invariants", body, 60.0)


def test_criterion_6_frobenius_suite(quadric, square, cyclic):
    specs = [quadric, square, cyclic, make_orthant(2), make_orthant(3)]

    def body():
        for spec in specs:
            for q in (1, 2, 3, 4):
                dec = decompose_root(spec, q)
                assert sum(n for _, n in dec.counts) == q ** spec.rank
        assert minimal_complete_q(quadric) == 2
        assert minimal_complete_q(make_orthant(2)) == 1
        assert minimal_complete_q(make_orthant(3)) == 1
        for spec in specs:
            q = minimal_complete_q(spec)
            realized = {rep for rep, _ in decompose_root(spec, q).counts}
            assert realized == set(enumerate_classes(spec).reps)

    _run(6, "frobenius decompositions", body, 30.0)


# ---------------------------------------------------------------------------
# criterion 7: restriction to a facet hyperplane
#
# The restricted data keeps every raw functional unscaled.  Inserting a
# zero at the dropped index identifies restricted ceiling vectors with
# ceiling vectors of chambers that meet the hyperplane, cells included,
# with codimension shifted by one.  The cleaned cone (primitive normals,
# redundancy dropped) only coarsens this picture, so its chamber map can
# collapse fibers; on the square facet it is two to one.


def _refined_feasible(fr, r, omega=None):
    # omega=None checks the half-open chamber strips, otherwise the
    # cell with exactly the strips in omega left open
    rows = []
    for (j, g), rj in zip(fr.functionals, r):
        if omega is not None and j not in omega:
            rows.append((g, EQ, rj))
        else:
            rows.append((g, LT if omega is not None else LE, rj))
            rows.append((tuple(-x for x in g), LT, 1 - rj))
    return feasible(system(len(fr.basis), rows))


def _meets_hyperplane(spec, c, i):
    rows = [(spec.normals[i], EQ, c[i])]
    for j, n in enumerate(spec.normals):
        if j != i:
            rows.append((n, LE, c[j]))
            rows.append((tuple(-x for x in n), LT, 1 - c[j]))
    return feasible(system(spec.rank, rows))


def test_criterion_7_restriction_oracle(square, orthant3):
    def body():
        for spec in (square, orthant3):
            for i in range(len(spec.normals)):
                fr = restrict_to_facet(spec, i)
                others = [j for j, _ in fr.functionals]
                seen_clean = {}
                for r in product(range(-2, 3), repeat=len(others)):
                    c = list(r)
                    c.insert(i, 0)
                    c = tuple(c)
                    lives_in_h = (is_feasible(spec, c)
                                  and _meets_hyperplane(spec, c, i))
                    assert _refined_feasible(fr, r) == lives_in_h
                    if not lives_in_h:
                        continue
                    got = {(cell.omega, cell.codim)
                           for cell in enumerate_cells(spec, c)
                           if i not in cell.omega}
                    want = set()
                    for size in range(len(others) + 1):
                        for omega in combinations(others, size):
                            if _refined_feasible(fr, r, omega=set(omega)):
                                pinned = [g for jj, g in fr.functionals
                                          if jj not in omega]
                                want.add((omega, rank(pinned) + 1))
                    assert got == want, (i, c)
                    clean = tuple(
                        c[j] if scale == 1
                        else math.ceil(Fraction(c[j], scale))
                        for j, scale in fr.kept)
                    seen_clean.setdefault(clean, set()).add(c)
                if spec is orthant3:
                    assert all(len(v) == 1 for v in seen_clean.values())
        # the cleaned map collapses two chambers on the square facet:
        # both slices land in the same cleaned chamber
        fiber = [c for c in ((0, 0, c2, 0) for c2 in range(-4, 5))
                 if is_feasible(square, c)
                 and _meets_hyperplane(square, c, 0)]
        assert set(fiber) == {(0, 0, 0, 0), (0, 0, -1, 0)}

    _run(7, "facet restriction correspondence", body, 60.0)


def test_criterion_8_cone_over_octahedron(octahedron):
    # rank 4 and not simplicial: the largest cone analysed end to end here
    def body():
        report = analyze(octahedron)
        assert report["class_count"] == 200
        shapes = Counter(
            tuple(row["cell_census"][str(k)] for k in range(len(row["cell_census"])))
            for row in report["classes"])
        assert shapes == {(1, 2, 1): 64, (1, 3, 3, 1): 64, (1, 4, 4, 1): 48,
                          (1, 4, 6, 4, 1): 16, (1, 8, 12, 6, 1): 8}
        assert report["global_dimension"] == 4
        assert report["nccr"]["verdict"] == "NotNCCR"
        assert report["smith"]["all_trivial"]

    _run(8, "cone over the octahedron", body, 60.0)


def test_criterion_9_eight_facet_cone_over_a_polytope():
    # a rank-4 cone over a lattice polytope with vertices in {-1, 0, 1}^3
    # and eight facets; its class search alone took minutes on one
    # Fourier-Motzkin call per step, and 862 is the class count found then
    spec = from_normals(4, ((-4, -2, 1, 1), (-1, 3, 2, 2), (0, 0, -1, 1),
                            (0, 1, 0, 1), (1, -2, 1, 1), (1, 0, 0, 1),
                            (1, 0, 1, 1), (2, -1, -1, 2)))

    def body():
        report = analyze(spec)
        assert report["class_count"] == 862
        assert report["global_dimension"] == 4
        assert report["nccr"]["verdict"] == "NotNCCR"

    _run(9, "eight-facet cone over a polytope", body, 60.0)
