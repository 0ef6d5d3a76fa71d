import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic import (
    canonical_class,
    cell_census,
    cells as cells_module,
    chamber_of,
    chamber_witness,
    conic_complex,
    degree,
    enumerate_cells,
    enumerate_classes,
    from_normals,
    has_zero_cell,
    is_adjacent,
    is_feasible,
    iso_witness,
    leq,
    nccr_verdict,
    pdim_simple,
    ratgeom,
    smith_invariants,
    translation_lattice,
    verify_acyclicity,
)
from conic.cells import class_pattern
from conic.chambers import nhat, pairings, require_chamber
from conic.errors import InputError
from conic.ratgeom import add, dot, feasible, sub

import lattice_oracle as oracle
from box_census import box_census
from cell_oracle import region_system

ceil2 = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


def members(spec, c, radius):
    # lattice points of the conic module named by c, within a box
    out = set()
    for m in product(range(-radius, radius + 1), repeat=spec.rank):
        if all(dot(m, n) >= ci for n, ci in zip(spec.normals, c)):
            out.add(m)
    return out


def test_chamber_of_examples(quadric):
    assert chamber_of(quadric, (0, 0)) == (0, 0)
    # v = (1/3, 1/2): pairings 5/6 and 1/6 round up to 1 and 1
    v = (Fraction(1, 3), Fraction(1, 2))
    assert chamber_of(quadric, v) == (1, 1)


def test_chamber_of_own_witness_round_trip(square):
    for c in [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (1, 1, 1, 1)]:
        w = chamber_witness(square, c)
        assert w is not None
        assert chamber_of(square, w) == c


def test_chamber_witness_caches_only_representatives(square):
    # translates of a chamber and of a non-chamber add nothing to the
    # cone's stored cells once their representatives are in it
    reps = [(0, 0, 0, -1), (3, 0, 0, 0)]
    for c in reps:
        chamber_witness(square, c)
    stored = square._store[class_pattern]
    size = len(stored)
    chamber, other = (add(c, nhat(square, (1, 2, 3))) for c in reps)
    assert chamber_of(square, chamber_witness(square, chamber)) == chamber
    assert chamber_witness(square, other) is None
    assert len(stored) == size
    # nor do the cell entry points, complexes, a partial support whose
    # spliced summands are translates, or more non-chambers: every key is
    # a class representative with cells
    assert [cell.chamber for cell in enumerate_cells(square, chamber)] == [
        chamber] * len(enumerate_cells(square, reps[0]))
    assert cell_census(square, chamber) == cell_census(square, reps[0])
    assert has_zero_cell(square, chamber) == has_zero_cell(square, reps[0])
    assert conic_complex(square, chamber).chamber == chamber
    assert nccr_verdict(square, [(0, 0, 0, 0), (0, 0, 0, -1)]).verdict == "NCCR"
    assert not is_feasible(square, (5, 0, 0, 0))
    assert not is_feasible(square, (0, 0, 0, 7))
    classes = set(enumerate_classes(square).reps)
    for (key,), cells in stored.items():
        assert key in classes and cells, key


def test_square_corrected_feasibility(square):
    # (1,0,0,0) is a genuine chamber, adjacent to the free one
    assert is_feasible(square, (1, 0, 0, 0))
    assert is_adjacent(square, (0, 0, 0, 0), (1, 0, 0, 0))


def test_square_infeasible_example(square):
    # strips x1 <= 0 and 1 < x1 + x3 <= 2 with x3 <= 0, x2 <= 0 < x2 + x3
    assert not is_feasible(square, (0, 0, 2, 0))


def test_chamber_entry_points_accept_lists(square):
    c = (1, 0, 0, 0)
    assert is_feasible(square, list(c))
    assert not is_feasible(square, [0, 0, 2, 0])
    assert chamber_of(square, chamber_witness(square, list(c))) == c
    assert enumerate_cells(square, list(c)) == enumerate_cells(square, c)
    assert canonical_class(square, list(c)) == canonical_class(square, c)
    assert is_adjacent(square, [0, 0, 0, 0], list(c))
    assert conic_complex(square, list(c)) == conic_complex(square, c)
    assert pdim_simple(square, list(c)) == pdim_simple(square, c)
    assert smith_invariants(square, list(c)) == smith_invariants(square, c)
    assert (verify_acyclicity(square, list(c), [0, 0, 0, 0])
            == verify_acyclicity(square, c, (0, 0, 0, 0)))
    with pytest.raises(InputError):
        is_feasible(square, [0, 0, 0])
    # a bool entry is the int it equals: the complex kept for it, and what
    # later int calls receive, hold ints (a fresh cone, so nothing is kept)
    fresh = from_normals(square.rank, square.normals)
    conic_complex(fresh, (True, 0, 0, 0))
    cx = conic_complex(fresh, c)
    rpt = verify_acyclicity(fresh, c, (0, 0, 0, 0))
    for vec in (cx.chamber, rpt.chamber, *(t for row in cx.terms for t in row)):
        assert all(type(x) is int for x in vec), vec


def test_non_numeric_point_is_refused(square):
    for point in [("a", 0, 0), (None, 0, 0), (0, "1/0", 0)]:
        with pytest.raises(InputError, match="got"):
            chamber_of(square, point)
    with pytest.raises(InputError, match="'a'"):
        is_feasible(square, ("a", 0, 0, 0))


def check_against_fm(spec, c):
    """Compare the cell-based chamber answers on c with Fourier-Motzkin;
    return whether c is a chamber."""
    t = len(spec.normals)
    chamber = feasible(region_system(spec, c))
    assert is_feasible(spec, c) == chamber, c
    if not chamber:
        assert chamber_witness(spec, c) is None
        return False
    # the witness lies inside the chamber, off every wall
    w = chamber_witness(spec, c)
    assert all(ci - 1 < p < ci for p, ci in zip(pairings(spec, w), c))
    for i in range(t):
        up = tuple(x + (j == i) for j, x in enumerate(c))
        rest = tuple(j for j in range(t) if j != i)
        wall = feasible(region_system(spec, c, eq=(i,), open_=rest))
        if is_feasible(spec, up):
            assert is_adjacent(spec, c, up) == wall, (c, i)
        else:
            # the step rule: a wall of c on normal i opens onto c + e_i
            assert not wall, (c, i)
    return True


@pytest.mark.parametrize("name, radius", [
    ("quadric", 2), ("square", 1), ("cyclic", 2), ("orthant2", 2),
    ("pentagon", 1), ("hexagon", 1)])
def test_chamber_answers_match_fm_on_a_box(request, name, radius):
    spec = request.getfixturevalue(name)
    box = range(-radius, radius + 1)
    found = {check_against_fm(spec, c)
             for c in product(box, repeat=len(spec.normals))}
    # on a simplicial cone every integer vector is a chamber
    assert found == ({True} if spec.simplicial else {False, True})


def test_chamber_answers_match_fm_on_octahedron(octahedron):
    # chambers of random rational points, one coordinate moved by one,
    # and lattice translates of both
    rng = random.Random(8)
    found = set()
    for _ in range(12):
        point = [Fraction(rng.randint(-12, 12), rng.randint(1, 6))
                 for _ in range(4)]
        c = chamber_of(octahedron, point)
        k = rng.randrange(len(c))
        moved = tuple(x + (j == k) * rng.choice((-1, 1)) for j, x in enumerate(c))
        shift = nhat(octahedron, [rng.randint(-2, 2) for _ in range(4)])
        for vec in (c, moved):
            found.add(check_against_fm(octahedron, vec))
            found.add(check_against_fm(octahedron, add(vec, shift)))
    assert found == {False, True}


def test_class_counts(quadric, square, cyclic, orthant2):
    assert enumerate_classes(quadric).reps == ((0, 0), (0, 1))
    assert enumerate_classes(square).reps == (
        (0, 0, 0, -1), (0, 0, 0, 0), (0, 0, 0, 1))
    assert enumerate_classes(cyclic).reps == ((0, 0), (0, 1), (0, 2))
    assert enumerate_classes(orthant2).reps == ((0, 0),)


@pytest.mark.parametrize("name, count", [
    ("quadric", 2), ("square", 3), ("cyclic", 3), ("orthant2", 1),
    ("orthant3", 1), ("pentagon", 19), ("hexagon", 23)])
def test_classes_match_box_census(request, name, count):
    # the census meets every class on its own, so the BFS must find
    # exactly its classes
    spec = request.getfixturevalue(name)
    census = box_census(spec)
    reps = enumerate_classes(spec).reps
    assert len(census) == len(reps) == count
    assert {canonical_class(spec, c) for c in census} == set(reps)


def test_labels_free_class_is_a0(square):
    cl = enumerate_classes(square)
    assert cl.labels == ("A1", "A0", "A2")
    assert cl.rep_of("A0") == (0, 0, 0, 0)
    assert cl.label_of((0, 0, 0, -1)) == "A1"
    with pytest.raises(InputError):
        cl.rep_of("A9")


@pytest.mark.parametrize("name", ["quadric", "square", "cyclic", "orthant2",
                                  "orthant3", "pentagon", "hexagon",
                                  "octahedron"])
def test_label_of_inverts_labels(request, name):
    cl = enumerate_classes(request.getfixturevalue(name))
    assert [cl.label_of(rep) for rep in cl.reps] == list(cl.labels)
    lo, hi = cl.reps[0], cl.reps[-1]
    for unknown in [tuple(x - 1 for x in lo), tuple(x + 1 for x in hi),
                    tuple(x + 1 for x in lo)]:
        if unknown not in cl.reps:
            with pytest.raises(ValueError):
                cl.label_of(unknown)


def test_translation_lattices(quadric, square, cyclic):
    assert translation_lattice(quadric) == ((1, 1), (0, 2))
    assert translation_lattice(cyclic) == ((1, 1), (0, 3))
    assert translation_lattice(square) == (
        (1, 0, 0, 1), (0, 1, 0, -1), (0, 0, 1, 1))


def test_canonical_class_is_translation_invariant(square):
    lat = translation_lattice(square)
    c = (1, 0, 0, 0)
    for row in lat:
        shifted = add(c, row)
        assert canonical_class(square, shifted) == canonical_class(square, c)


def test_canonical_class_reduces_once(square, monkeypatch):
    # results and refusals are those of reducing require_chamber's vector
    real = ratgeom.reduce_by_pivots
    pivots = cells_module._lattice_pivots(square)
    calls = []
    monkeypatch.setattr(ratgeom, "reduce_by_pivots",
                        lambda v, piv: calls.append(v) or real(v, piv))
    for c in [*product(range(-1, 2), repeat=4), (0, 0, 0)]:
        try:
            want = real(require_chamber(square, c), pivots)
        except InputError as err:
            want = str(err)
        calls.clear()
        try:
            got = canonical_class(square, c)
        except InputError as err:
            got = str(err)
        assert got == want
        assert len(calls) == (len(c) == 4)


@pytest.mark.parametrize("name", ["quadric", "square", "cyclic", "orthant2",
                                  "orthant3", "pentagon", "hexagon", "octahedron"])
def test_reduce_matches_reduce_mod_hnf(request, name):
    # the kept pivot triples reduce as the HNF basis does; the
    # octahedron's basis has pivots of 2
    spec = request.getfixturevalue(name)
    lattice = translation_lattice(spec)
    if name == "octahedron":
        assert max(next(x for x in row if x) for row in lattice) == 2
    rng = random.Random(name)
    vecs = list(enumerate_classes(spec).reps)
    vecs += [tuple(rng.randint(-50, 50) for _ in spec.normals)
             for _ in range(200)]
    for v in vecs:
        assert (ratgeom.reduce_by_pivots(v, cells_module._lattice_pivots(spec))
                == ratgeom.reduce_mod_hnf(v, lattice))


@pytest.mark.parametrize("name, box", [
    ("square", 2), ("pentagon", 2), ("octahedron", 1)])
def test_preimage_matches_lattice_solve(request, name, box):
    # against the Fraction back-substitution of the lattice oracle, as
    # ratgeom.lattice_solve shares cells._preimage's lattice_witness: every
    # ordered class pair, then every vector of a small box, which has
    # integral witnesses, rational non-integral solutions (the
    # octahedron's (1/2, 1/2, 0, 0)) and no solution at all
    spec = request.getfixturevalue(name)
    reps = enumerate_classes(spec).reps
    for h in (sub(a, b) for a in reps for b in reps):
        assert cells_module._preimage(spec, h) == oracle.lattice_solve(spec.normals, h)
    kinds = set()
    for h in product(range(-box, box + 1), repeat=len(spec.normals)):
        want = oracle.lattice_solve(spec.normals, h)
        assert cells_module._preimage(spec, h) == want
        kinds.add("integral" if want is not None
                  else "rational" if ratgeom.linear_solve(
                      spec.normals, h, spec.rank) is not None
                  else "none")
    assert {"integral", "none"} <= kinds
    if name == "octahedron":
        assert "rational" in kinds


def test_iso_witness_round_trip(square):
    m = iso_witness(square, (1, 0, 0, 1), (0, 0, 0, 0))
    assert m is not None
    assert add((0, 0, 0, 0), nhat(square, m)) == (1, 0, 0, 1)
    assert iso_witness(square, (0, 0, 0, 0), (0, 0, 0, 1)) is None


@settings(max_examples=60, deadline=None)
@given(ceil2, ceil2)
def test_leq_matches_containment_oracle_quadric(quadric, a, b):
    if not (is_feasible(quadric, a) and is_feasible(quadric, b)):
        return
    # within a big box, module containment is exactly entrywise >=
    got = leq(quadric, a, b)
    box_a = members(quadric, a, 10)
    box_b = members(quadric, b, 10)
    assert got == (box_a <= box_b)


@settings(max_examples=60, deadline=None)
@given(ceil2, ceil2)
def test_degree_strictly_drops_under_inclusion(cyclic, a, b):
    if not (is_feasible(cyclic, a) and is_feasible(cyclic, b)):
        return
    if leq(cyclic, a, b) and a != b:
        assert degree(b) - degree(a) >= 1


@settings(max_examples=60, deadline=None)
@given(ceil2)
def test_every_point_lies_in_its_chamber(cyclic, c):
    if not is_feasible(cyclic, c):
        return
    w = chamber_witness(cyclic, c)
    prs = pairings(cyclic, w)
    for p, ci in zip(prs, c):
        assert ci - 1 < p <= ci


def covering_pairs(spec, lo, hi):
    cs = [c for c in product(range(lo, hi + 1), repeat=len(spec.normals))
          if is_feasible(spec, c)]
    for a in cs:
        for b in cs:
            if a != b and leq(spec, a, b):
                yield a, b


def test_covering_three_way_equivalence(quadric, cyclic):
    # inclusion-adjacent pairs are exactly the degree-one drops
    for spec in (quadric, cyclic):
        for a, b in covering_pairs(spec, -2, 2):
            gap = degree(b) - degree(a)
            strictly_between = any(
                c != a and c != b and leq(spec, a, c) and leq(spec, c, b)
                for c in product(*[range(bb, aa + 1)
                                   for aa, bb in zip(a, b)]))
            assert (gap == 1) == (not strictly_between)
            if gap == 1:
                assert is_adjacent(spec, a, b)


def test_adjacent_needs_a_shared_wall(square):
    # (0,0,0,0) and (0,0,0,1) differ in one coordinate but the wall
    # x2 + x3 = 0 meets both closures, so they are adjacent
    assert is_adjacent(square, (0, 0, 0, 1), (0, 0, 0, 0))
    # several coordinates apart is never adjacent
    assert not is_adjacent(square, (0, 0, 0, 0), (1, 1, 1, 1))
    with pytest.raises(InputError):
        is_adjacent(square, (0, 0, 0, 0), (2, 0, 0, 0))


def test_degree_values():
    assert degree((0, 0, 0, 0)) == 0
    assert degree((1, 0, 0, -1)) == 0
    assert degree((0, 1)) == -1


def test_pairings_and_nhat_refuse_a_wrong_length(square):
    with pytest.raises(InputError) as exc:
        pairings(square, (1, 2))
    assert str(exc.value) == "point has length 2, expected 3"
    with pytest.raises(InputError) as exc:
        nhat(square, (1, 2, 3, 4))
    assert str(exc.value) == "lattice point has length 4, expected 3"
