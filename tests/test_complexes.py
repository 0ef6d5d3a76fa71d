import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from conic import (
    ConicComplex,
    complexes,
    conic_complex,
    enumerate_classes,
    ext_dims,
    from_normals,
    from_primal_rays,
    global_dimension,
    graded_piece,
    homology_ranks,
    nccr_verdict,
    open_conic,
    pdim_simple,
    resolution,
    smith_invariants,
    verify_acyclicity,
)
from conic.chambers import canonical_class, nhat
from conic.cli_io import main
from conic.complexes import _verify, default_window
from conic.cone import content_hash
from conic.errors import InputError, InternalInvariantError, SupportNotClosedError
from conic.ratgeom import add

from acyclicity_oracle import oracle_verify
from splice_oracle import oracle_resolution

FREE, X, Y = (0, 0, 0, 0), (0, 0, 0, -1), (0, 0, 0, 1)


def classes_of_row(spec, row):
    return sorted(canonical_class(spec, vec) for vec in row)


def test_octahedral_complex_shape(square):
    cx = conic_complex(square, FREE)
    assert [len(row) for row in cx.terms] == [1, 4, 4, 1]
    assert classes_of_row(square, cx.terms[1]) == [X, X, Y, Y]
    assert classes_of_row(square, cx.terms[2]) == [FREE] * 4
    assert classes_of_row(square, cx.terms[3]) == [FREE]


def test_tetrahedral_complex_shape(square):
    for rep in (X, Y):
        cx = conic_complex(square, rep)
        assert [len(row) for row in cx.terms] == [1, 2, 1]
        assert classes_of_row(square, cx.terms[1]) == [FREE, FREE]


def test_cyclic_complex_classes(cyclic):
    reps = enumerate_classes(cyclic).reps
    for rep in reps:
        cx = conic_complex(cyclic, rep)
        assert [len(row) for row in cx.terms] == [1, 2, 1]
        assert canonical_class(cyclic, cx.terms[0][0]) == rep
        assert canonical_class(cyclic, cx.terms[2][0]) == rep
        middle = set(classes_of_row(cyclic, cx.terms[1]))
        assert middle == set(reps) - {rep}


def test_differentials_square_to_zero(quadric, square, cyclic, orthant3):
    for spec in (quadric, square, cyclic, orthant3):
        for rep in enumerate_classes(spec).reps:
            mats = conic_complex(spec, rep).mats
            for a, b in zip(mats, mats[1:]):
                for r in range(len(a)):
                    for c in range(len(b[0]) if b else 0):
                        assert sum(a[r][k] * b[k][c]
                                   for k in range(len(b))) == 0


def test_graded_piece_identity_slot(square):
    cx = conic_complex(square, FREE)
    sc = graded_piece(square, cx, FREE, (0, 0, 0))
    assert sc.dims == (1, 0, 0, 0)
    assert homology_ranks(sc) == (1, 0, 0, 0)


def test_graded_piece_far_translate_is_exact(square):
    cx = conic_complex(square, FREE)
    sc = graded_piece(square, cx, FREE, (2, 2, 3))
    assert sum(sc.dims) > 0
    assert all(h == 0 for h in homology_ranks(sc))


def test_acyclicity_default_window(square):
    rpt = verify_acyclicity(square, FREE, X)
    assert rpt.passed
    assert rpt.failures == ()
    rpt = verify_acyclicity(square, FREE, FREE)
    assert rpt.passed
    assert rpt.hits == ((0, 0, 0),)


def test_acyclicity_zero_window_is_trivial(quadric):
    rpt = verify_acyclicity(quadric, (0, 0), (0, 1), window=0)
    assert rpt.checked == 1
    assert rpt.passed


@pytest.mark.parametrize("window", [-1, True, 2.0, "2"])
def test_window_must_be_a_nonnegative_int(square, window):
    with pytest.raises(InputError, match="window"):
        verify_acyclicity(square, FREE, X, window=window)
    with pytest.raises(InputError, match="window"):
        resolution(square, [FREE, X], X, window=window)


@pytest.mark.parametrize("name", ["square", "cyclic", "pentagon", "hexagon"])
def test_acyclicity_matches_per_point_oracle(request, name):
    # Default windows of every pair cost minutes on the polygons; there
    # they are checked against the free class only.
    spec = request.getfixturevalue(name)
    classes = enumerate_classes(spec)
    free = classes.rep_of("A0")
    for a in classes.reps:
        cx = conic_complex(spec, a)
        for b in classes.reps:
            radii = [0, 1, 2, 3]
            if name in ("square", "cyclic") or free in (a, b):
                radii.append(default_window(a, b))
            for radius in radii:
                assert _verify(spec, cx, b, radius) == oracle_verify(
                    spec, cx, b, radius), (a, b, radius)


@pytest.mark.parametrize("name", ["square", "cyclic", "pentagon"])
def test_failing_acyclicity_matches_per_point_oracle(request, name):
    # A truncated complex is not exact, so its reports carry failures and
    # hits that are not the chamber's own: the hit must be decided per
    # point even where its survival mask recurs.
    spec = request.getfixturevalue(name)
    classes = enumerate_classes(spec)
    radii = (0, 1, 2) if name == "pentagon" else (0, 1, 2, 3)
    for a in classes.reps:
        full = conic_complex(spec, a)
        for k in range(1, len(full.terms)):
            cx = ConicComplex(chamber=a, terms=full.terms[:k],
                              cells=full.cells[:k], mats=full.mats[:k - 1])
            for b in classes.reps:
                for radius in radii:
                    want = oracle_verify(spec, cx, b, radius)
                    assert _verify(spec, cx, b, radius) == want, (a, b, k)


def test_moved_summand_acyclicity_matches_per_point_oracle(
        square, pentagon, hexagon):
    # One summand of a chamber complex moved by +-1 at one normal: the
    # survival masks along that normal gain or lose a step, so reports
    # fail at points whose masks recur, and a slice that is no longer a
    # complex raises on both sides.
    rng = random.Random(35)
    failing = raised = 0
    for _ in range(70):
        for spec in (square, pentagon, hexagon):
            reps = enumerate_classes(spec).reps
            a, b = rng.choice(reps), rng.choice(reps)
            full = conic_complex(spec, a)
            terms = [list(row) for row in full.terms]
            deg = rng.randrange(len(terms))
            pos = rng.randrange(len(terms[deg]))
            i = rng.randrange(len(spec.normals))
            vec = list(terms[deg][pos])
            vec[i] += rng.choice((-1, 1))
            terms[deg][pos] = tuple(vec)
            cx = ConicComplex(chamber=a, terms=tuple(map(tuple, terms)),
                              cells=full.cells, mats=full.mats)
            radius = rng.choice((1, 2))
            try:
                want = oracle_verify(spec, cx, b, radius)
            except InternalInvariantError:
                with pytest.raises(InternalInvariantError):
                    _verify(spec, cx, b, radius)
                raised += 1
                continue
            assert _verify(spec, cx, b, radius) == want, (a, b, deg, pos, i)
            failing += not want.passed
    assert failing >= 50 and raised


@pytest.mark.parametrize("support", [[FREE, X], [FREE, Y]])
def test_spliced_acyclicity_matches_per_point_oracle(square, support):
    reps = enumerate_classes(square).reps
    for own in support:
        cx = resolution(square, support, own).complex
        assert cx.spliced
        for b in reps:
            for radius in (0, 1, 2, 3, default_window(own, b)):
                assert _verify(square, cx, b, radius) == oracle_verify(
                    square, cx, b, radius), (own, b, radius)


def _survival_masks(spec, cx, cp, radius):
    masks = set()
    for m in product(range(-radius, radius + 1), repeat=spec.rank):
        target = add(cp, nhat(spec, m))
        masks.add(tuple(
            tuple(all(x >= y for x, y in zip(target, vec)) for vec in row)
            for row in cx.terms))
    return masks


def test_homology_once_per_survival_mask(monkeypatch):
    # a pentagon built here, so that no earlier test has filled its
    # per-cone table of slice ranks
    pentagon = from_primal_rays(
        3, [(-2, -1, 1), (-1, -1, 1), (1, 0, 1), (1, 1, 1), (-1, 0, 1)])
    reps = enumerate_classes(pentagon).reps
    a, b, b2, radius = reps[1], reps[2], reps[3], 2
    cx = conic_complex(pentagon, a)
    seen = _survival_masks(pentagon, cx, b, radius)
    fresh = _survival_masks(pentagon, cx, b2, radius) - seen
    calls = []
    real = complexes.homology_ranks

    def counting(sc):
        calls.append(sc)
        return real(sc)

    monkeypatch.setattr(complexes, "homology_ranks", counting)
    rpt = verify_acyclicity(pentagon, a, b, window=radius)
    assert rpt.checked == (2 * radius + 1) ** pentagon.rank
    assert len(calls) == len(seen) < rpt.checked
    # the same chamber against another one: only masks not met before
    del calls[:]
    assert verify_acyclicity(pentagon, a, b2, window=radius).passed
    assert len(calls) == len(fresh) < len(seen)
    del calls[:]
    assert verify_acyclicity(pentagon, a, b, window=radius) == rpt
    assert calls == []


def test_tail_sets_once_per_radius():
    # a square built here, so that no earlier test has filled its table
    square = from_normals(3, [(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1)])
    for radius in (0, 2, 1):
        assert verify_acyclicity(square, FREE, X, window=radius).passed
    table = square._store[complexes._tail_sets]
    assert sorted(table) == [(0,), (1,), (2,)]
    for (radius,), sets in table.items():
        assert len(sets) == len(square.normals)
        tails = list(product(range(-radius, radius + 1), repeat=square.rank - 1))
        bits = 0
        for n, by_level in zip(square.normals, sets):
            reach = radius * sum(map(abs, n[1:]))
            assert len(by_level) == 2 * reach + 2
            # bit k is the k-th tail point in product order
            for u, got in enumerate(by_level):
                want = sum(1 << k for k, t in enumerate(tails)
                           if sum(x * a for x, a in zip(t, n[1:])) + reach >= u)
                assert got == want, (n, radius, u)
            bits += len(by_level) * len(tails)
        # sum_i (2r * |n_i[1:]|_1 + 2) bitsets of (2r + 1)^(d - 1) bits
        assert bits == sum(2 * radius * sum(map(abs, n[1:])) + 2
                           for n in square.normals) * (2 * radius + 1) ** 2
    # a second call at a radius asked before builds nothing
    kept = table[(2,)]
    assert verify_acyclicity(square, FREE, Y, window=2).passed
    assert sorted(table) == [(0,), (1,), (2,)]
    assert table[(2,)] is kept


def test_window_budget(monkeypatch):
    square = from_normals(3, [(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1)])
    assert complexes.WINDOW_BUDGET == 10 ** 6
    # 101^3 points: refused at once, before any tail set is built
    with pytest.raises(InputError, match="radius 50 has 1030301 points, "
                                         "past the budget of 1000000"):
        verify_acyclicity(square, FREE, X, window=50)
    assert complexes._tail_sets not in square._store
    monkeypatch.setattr(complexes, "WINDOW_BUDGET", 26)
    assert verify_acyclicity(square, FREE, X, window=0).checked == 1
    with pytest.raises(InputError, match="has 27 points, past the budget of 26"):
        verify_acyclicity(square, FREE, X, window=1)
    # a spliced resolution is refused at its validation window, the
    # default one included; the default here is 4, 9^3 points
    with pytest.raises(InputError, match="has 27 points, past the budget of 26"):
        resolution(square, [FREE, X], X, window=1)
    with pytest.raises(InputError, match="has 729 points, past the budget of 26"):
        resolution(square, [FREE, X], X)
    # a window given is refused even where nothing is spliced
    with pytest.raises(InputError, match="has 27 points, past the budget of 26"):
        resolution(square, enumerate_classes(square).reps, X, window=1)
    assert sorted(square._store[complexes._tail_sets]) == [(0,)]


def _oracle_cases(spec, cx, cp, radii):
    # the report against oracle_verify at every radius; returns how many
    # witnesses fell outside the window and how many on its edge
    outside = edge = 0
    for radius in radii:
        want = oracle_verify(spec, cx, cp, radius)
        assert _verify(spec, cx, cp, radius) == want, (cx.chamber, cp, radius)
        if want.witness is not None:
            reach = max(map(abs, want.witness))
            outside += reach > radius
            edge += reach == radius
    return outside, edge


def test_rank_two_acyclicity_matches_oracle_off_window(quadric):
    # cp runs over translates of each class, so the witness -m0 lies
    # inside the window, on its edge and outside it
    outside = edge = 0
    for a in enumerate_classes(quadric).reps:
        full = conic_complex(quadric, a)
        for k in range(1, len(full.terms) + 1):
            cx = ConicComplex(chamber=a, terms=full.terms[:k],
                              cells=full.cells[:k], mats=full.mats[:k - 1])
            for b in enumerate_classes(quadric).reps:
                for m0 in product(range(-2, 3), repeat=2):
                    cp = add(b, nhat(quadric, m0))
                    got = _oracle_cases(quadric, cx, cp, (0, 1, 2, 3))
                    outside += got[0]
                    edge += got[1]
    assert outside and edge


def test_rank_four_acyclicity_matches_oracle_on_a_sample(octahedron):
    rng = random.Random(15)
    reps = enumerate_classes(octahedron).reps
    outside = edge = 0
    for _ in range(40):
        a, b = rng.choice(reps), rng.choice(reps)
        full = conic_complex(octahedron, a)
        k = rng.randrange(1, len(full.terms) + 1)
        cx = ConicComplex(chamber=a, terms=full.terms[:k],
                          cells=full.cells[:k], mats=full.mats[:k - 1])
        m0 = tuple(rng.randrange(-2, 3) for _ in range(4))
        for cp in (b, a, add(a, nhat(octahedron, m0))):
            got = _oracle_cases(octahedron, cx, cp, (0, 1))
            outside += got[0]
            edge += got[1]
    assert outside and edge


def test_rank_four_acyclicity_matches_oracle_at_radius_two(octahedron):
    # radius 2, the window the benchmark's acyclicity ops ask for; the
    # last complex is truncated, so its reports fail
    rng = random.Random(28)
    reps = enumerate_classes(octahedron).reps
    passed = []
    for truncate in (False, False, False, True):
        a, b = rng.choice(reps), rng.choice(reps)
        cx = conic_complex(octahedron, a)
        if truncate:
            cx = ConicComplex(chamber=a, terms=cx.terms[:2],
                              cells=cx.cells[:2], mats=cx.mats[:1])
        for cp in (b, a):
            want = oracle_verify(octahedron, cx, cp, 2)
            assert _verify(octahedron, cx, cp, 2) == want, (a, cp)
            passed.append(want.passed)
    assert passed == [True] * 6 + [False] * 2


def test_pdims_and_global_dimension(quadric, square, cyclic, orthant2, orthant3):
    assert [pdim_simple(square, rep)
            for rep in enumerate_classes(square).reps] == [2, 3, 2]
    assert global_dimension(square) == 3
    assert global_dimension(quadric) == 2
    assert global_dimension(cyclic) == 2
    assert global_dimension(orthant2) == 2
    assert global_dimension(orthant3) == 3


def test_ext_tables_octahedral(square):
    assert ext_dims(square, FREE, X) == (0, 2, 0, 0)
    assert ext_dims(square, FREE, Y) == (0, 2, 0, 0)
    assert ext_dims(square, FREE, FREE) == (1, 0, 4, 1)


def test_ext_row_sums_equal_census(square, cyclic):
    from conic import cell_census
    for spec in (square, cyclic):
        reps = enumerate_classes(spec).reps
        for c in reps:
            census = cell_census(spec, c)
            table = [ext_dims(spec, c, rep) for rep in reps]
            for i in range(len(conic_complex(spec, c).terms)):
                assert sum(row[i] for row in table) == census[i]


def test_smith_invariants_all_one(quadric, square, cyclic, orthant3):
    for spec in (quadric, square, cyclic, orthant3):
        for rep in enumerate_classes(spec).reps:
            for invs in smith_invariants(spec, rep):
                assert all(x == 1 for x in invs)


def test_complete_support_resolution_mirrors_complex(square):
    reps = enumerate_classes(square).reps
    rpt = resolution(square, reps, FREE)
    assert not rpt.spliced
    assert rpt.validated_radius is None
    assert rpt.length == 3
    assert rpt.terms == (
        ((FREE, 1),), ((X, 2), (Y, 2)), ((FREE, 4),), ((FREE, 1),))


def test_spliced_resolution_of_x(square):
    rpt = resolution(square, [FREE, X], X)
    assert rpt.spliced
    assert rpt.length == 3
    assert rpt.terms == (((X, 1),), ((FREE, 2),), ((FREE, 2),), ((X, 1),))
    assert rpt.validated_radius is not None


def test_spliced_resolution_of_free(square):
    # corrected shape: six summands in each middle degree
    rpt = resolution(square, [FREE, X], FREE)
    assert rpt.spliced
    assert rpt.length == 3
    assert rpt.terms == (
        ((FREE, 1),), ((X, 2), (FREE, 4)), ((X, 2), (FREE, 4)), ((FREE, 1),))


SPLICE_CONES = {
    "square": from_normals(3, [(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1)]),
    "1/5(1,2)": from_normals(2, [(0, 1), (5, -2)]),
    "1/7(1,3)": from_normals(2, [(0, 1), (7, -3)]),
    "1/8(1,3)": from_normals(2, [(0, 1), (8, -3)]),
    "trapezoid": from_primal_rays(
        3, [(0, 0, 1), (2, 0, 1), (1, 1, 1), (0, 1, 1)]),
}


@pytest.mark.parametrize("name", SPLICE_CONES)
def test_resolution_matches_splice_oracle(name):
    # Every support and every class in it: closed supports give equal
    # reports, complexes, matrices and origins included, and supports
    # that are not closed are refused with the same cells.
    spec = SPLICE_CONES[name]
    reps = enumerate_classes(spec).reps
    spliced = complete = 0
    for k in range(1, len(reps) + 1):
        for support in combinations(reps, k):
            for own in support:
                try:
                    want = oracle_resolution(spec, support, own)
                except SupportNotClosedError as err:
                    with pytest.raises(SupportNotClosedError) as got:
                        resolution(spec, support, own)
                    assert got.value.cells == err.cells
                    continue
                got = resolution(spec, support, own)
                assert got == want, (support, own)
                assert all(type(x) is Fraction for m in got.complex.mats
                           for row in m for x in row)
                spliced += got.spliced
                complete += k == len(reps)
    assert spliced and complete == len(reps)


def test_resolution_requires_own_class(square):
    with pytest.raises(InputError):
        resolution(square, [FREE, X], Y)


def test_support_not_closed_lists_cells(square):
    with pytest.raises(SupportNotClosedError) as exc:
        resolution(square, [FREE], FREE)
    cells = exc.value.cells
    assert len(cells) == 4
    assert sorted(open_conic(c) for c in cells) == [
        (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)]


def test_nccr_complete_verdicts(quadric, square, cyclic, orthant3):
    assert nccr_verdict(quadric).verdict == "NCCR"
    assert nccr_verdict(cyclic).verdict == "NCCR"
    assert nccr_verdict(orthant3).verdict == "NCCR"
    v = nccr_verdict(square)
    assert v.verdict == "NotNCCR"
    assert v.complete
    assert v.witness in (X, Y)
    from conic import has_zero_cell
    assert not has_zero_cell(square, v.witness)


def test_nccr_complete_verdict_checks_zero_cells(quadric, cyclic, monkeypatch):
    # a simplicial cone's classes all have a zero cell, read off each
    # class's pattern up to the first without one
    asked = []
    real = complexes.class_pattern
    # the open cell alone: a pattern whose last codim is not the rank
    monkeypatch.setattr(complexes, "class_pattern",
                        lambda spec, c: asked.append(c) or real(spec, c)[:1])
    fresh = from_normals(cyclic.rank, cyclic.normals)
    with pytest.raises(InternalInvariantError, match="without a zero cell"):
        nccr_verdict(fresh)
    assert len(asked) == 1
    monkeypatch.setattr(complexes, "class_pattern", real)
    assert nccr_verdict(from_normals(quadric.rank, quadric.normals)).reasons == (
        "simplicial: every class has a zero cell",)


def test_nccr_complete_verdict_checks_full_length(square, monkeypatch,
                                                  tmp_path, capsys):
    # a non-simplicial cone has a class without a zero cell: with one
    # appended to every class's pattern the theorem check fails, and the
    # CLI names the cone
    real = complexes.class_pattern
    monkeypatch.setattr(complexes, "class_pattern",
                        lambda spec, c: (*real(spec, c), ((), spec.rank)))
    fresh = from_normals(square.rank, square.normals)
    with pytest.raises(InternalInvariantError,
                       match="all resolutions of full length"):
        nccr_verdict(fresh)
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"rank": square.rank, "normals": square.normals}))
    assert main(["nccr", "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("internal invariant violated: non-simplicial cone with "
                   f"all resolutions of full length (cone {content_hash(fresh)})\n")


def test_nccr_partial_supports(square, cyclic):
    assert nccr_verdict(square, support=[FREE, X]).verdict == "NCCR"
    assert nccr_verdict(square, support=[FREE, Y]).verdict == "NCCR"
    v = nccr_verdict(cyclic, support=[(0, 0), (0, 1)])
    assert v.verdict == "Inconclusive"
    assert "not closed" in v.reasons[0]
    with pytest.raises(InputError):
        nccr_verdict(square, support=[X, Y])


def test_nccr_full_support_passed_as_partial_is_complete(square):
    v = nccr_verdict(square, support=[FREE, X, Y])
    assert v.complete
    assert v.verdict == "NotNCCR"


FIXTURES = ("quadric", "square", "cyclic", "orthant2", "orthant3", "pentagon",
            "hexagon", "octahedron")
# sha256 of the verdicts below, recorded before the verdict path read its
# lengths off the spliced complexes
VERDICTS_DIGEST = (
    "cf1c86645d4311470696a5f9c2a27d8580d7ee2e0116b0db2a3dd06dcbdeeef8")


def _supports_with_free(spec, rng=None, count=0):
    # every support holding the free class, or count seeded random ones
    free = (0,) * len(spec.normals)
    rest = [rep for rep in enumerate_classes(spec).reps if rep != free]
    if rng is None:
        for k in range(len(rest) + 1):
            for sub in combinations(rest, k):
                yield (free, *sub)
    for _ in range(count):
        yield (free, *rng.sample(rest, rng.randint(0, len(rest))))


def test_nccr_verdicts_pinned(request, quadric, square, pentagon, hexagon):
    # complete NCCR and NotNCCR, partial NCCR, partial NotNCCR from a
    # short resolution, and Inconclusive from an unclosed support or a
    # spliced resolution past the rank
    cases = [(request.getfixturevalue(name), None) for name in FIXTURES]
    for spec in (quadric, square, from_normals(2, [(0, 1), (5, -2)])):
        cases += [(spec, s) for s in _supports_with_free(spec)]
    for spec in (pentagon, hexagon):
        cases += [(spec, s) for s in
                  _supports_with_free(spec, random.Random(34), 60)]
    verdicts = [nccr_verdict(spec, support) for spec, support in cases]
    seen = {(v.verdict, v.complete, v.reasons[0].split()[0]) for v in verdicts}
    assert len(seen) == 6
    text = "\n".join(repr((v.verdict, v.support, v.complete, v.witness,
                           v.reasons)) for v in verdicts)
    assert hashlib.sha256(text.encode()).hexdigest() == VERDICTS_DIGEST


# sha256 of repr(nccr_verdict(...)) on the octahedron with every class but
# A199, recorded from the per-point-mask window pass, where it took about
# 90 s of CPU
OCTAHEDRON_BUT_A199 = (
    "cdecb235cdbe87d49d541b55acd5e1e1a3c9ba707bfc049519595d0ef9b4cfaa")


def test_octahedron_partial_verdict_pinned(octahedron):
    classes = enumerate_classes(octahedron)

    def all_but(name):
        return [rep for rep in classes.reps if rep != classes.rep_of(name)]

    v = nccr_verdict(octahedron, all_but("A199"))
    assert v.verdict == "NotNCCR"
    assert hashlib.sha256(repr(v).encode()).hexdigest() == OCTAHEDRON_BUT_A199
    with pytest.raises(InputError, match="the window of radius 16 has 1185921 "
                                         "points, past the budget of 1000000"):
        nccr_verdict(octahedron, all_but("A2"))
