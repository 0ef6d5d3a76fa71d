import math
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from conic import (
    cli_io,
    decompose_root,
    from_normals,
    dmodule_report,
    enumerate_classes,
    frobenius,
    minimal_complete_q,
)
from conic.chambers import canonical_class, chamber_of
from conic.errors import InputError, UnsupportedOperationError
from conic.frobenius import PRIME_BOUND, _is_prime

FREE, X, Y = (0, 0, 0, 0), (0, 0, 0, -1), (0, 0, 0, 1)


def test_multiplicities_sum_to_q_to_d(quadric, square, cyclic, orthant2):
    for spec in (quadric, square, cyclic, orthant2):
        for q in (1, 2, 3, 4):
            dec = decompose_root(spec, q)
            assert dec.total == q ** spec.rank
            assert sum(n for _, n in dec.counts) == dec.total


def test_trivial_root_is_the_free_module(square):
    dec = decompose_root(square, 1)
    assert dec.counts == ((FREE, 1),)


def test_quadric_halving(quadric):
    dec = decompose_root(quadric, 2)
    assert dec.counts == (((0, 0), 2), ((0, 1), 2))
    assert dec.count_of((0, 1)) == 2


def test_square_halving(square):
    dec = decompose_root(square, 2)
    assert dec.counts == ((X, 1), (FREE, 6), (Y, 1))


def test_cyclic_root_of_group_order(cyclic):
    dec = decompose_root(cyclic, 3)
    assert dec.counts == (((0, 0), 3), ((0, 1), 3), ((0, 2), 3))


def test_minimal_complete_q(quadric, square, cyclic, orthant2, orthant3):
    assert minimal_complete_q(quadric) == 2
    assert minimal_complete_q(square) == 2
    # q = 2 already reaches all three cyclic classes, before q = 3 does
    assert minimal_complete_q(cyclic) == 2
    assert minimal_complete_q(orthant2) == 1
    assert minimal_complete_q(orthant3) == 1


def test_realized_classes_grow_with_divisibility(quadric, cyclic):
    for spec in (quadric, cyclic):
        for q in (1, 2, 3):
            small = {rep for rep, _ in decompose_root(spec, q).counts}
            for k in (2, 3):
                big = {rep for rep, _ in decompose_root(spec, k * q).counts}
                assert small <= big


def test_complete_at_minimal_q(quadric, square, cyclic):
    for spec in (quadric, square, cyclic):
        q = minimal_complete_q(spec)
        realized = {rep for rep, _ in decompose_root(spec, q).counts}
        assert realized == set(enumerate_classes(spec).reps)
        if q > 1:
            below = {rep for rep, _ in decompose_root(spec, q - 1).counts}
            assert below != realized


def test_root_budget(cyclic, octahedron):
    # every q a minimal-q search reaches is admitted up to rank 4
    assert frobenius.ROOT_BUDGET == frobenius.SEARCH_CAP ** 4
    for spec, q in ((cyclic, 4097), (octahedron, 65)):
        with pytest.raises(InputError, match=(
                f"has {q ** spec.rank} residues, past the budget of "
                f"{frobenius.ROOT_BUDGET}")):
            decompose_root(spec, q)


def test_search_cap(quadric, monkeypatch):
    monkeypatch.setattr(frobenius, "SEARCH_CAP", 1)
    with pytest.raises(UnsupportedOperationError, match="no root up to 1 "):
        minimal_complete_q(quadric)


def test_dmodule_reports(quadric, square, orthant2):
    rpt = dmodule_report(quadric, 3)
    assert (rpt.minimal_q, rpt.minimal_e, rpt.q_at_e) == (2, 1, 3)
    assert (rpt.bound_low, rpt.bound_high) == (2, 3)
    rpt = dmodule_report(square, 2)
    assert (rpt.minimal_e, rpt.q_at_e) == (1, 2)
    assert (rpt.bound_low, rpt.bound_high) == (3, 4)
    assert "conjectural" in rpt.note
    # regular case: q = 1 is already complete, so e = 0 works
    rpt = dmodule_report(orthant2, 5)
    assert (rpt.minimal_e, rpt.q_at_e) == (0, 1)
    assert (rpt.bound_low, rpt.bound_high) == (2, 3)


def test_minimal_e_is_decided_at_the_power(quadric):
    # 1/30(1,11): minimal q is 6, but q = 7 misses class (0, 3), so the
    # least complete power of 7 is 49
    spec = from_normals(2, [(0, 1), (30, -11)])
    rpt = dmodule_report(spec, 7)
    assert (rpt.minimal_q, rpt.minimal_e, rpt.q_at_e) == (6, 2, 49)
    assert (0, 3) not in dict(decompose_root(spec, 7).counts)


def _least_complete_power(spec, p):
    # the least e whose root decomposition at p^e counts every class
    wanted = set(enumerate_classes(spec).reps)
    e = 0
    while {rep for rep, _ in decompose_root(spec, p ** e).counts} != wanted:
        e += 1
    return e


def test_minimal_e_matches_direct_search_on_cyclic_quotients():
    # every 1/r(1,a) with r < 40; at the old rule (least p^e >= minimal q)
    # exactly 1/30(1,11) and 1/30(1,19) at p = 7 and 1/35(1,19) and
    # 1/35(1,24) at p = 2 differ
    for r in range(2, 40):
        for a in range(1, r):
            if math.gcd(a, r) != 1:
                continue
            spec = from_normals(2, [(0, 1), (r, -a)])
            for p in (2, 3, 5, 7):
                rpt = dmodule_report(spec, p)
                e = _least_complete_power(spec, p)
                assert (rpt.minimal_e, rpt.q_at_e) == (e, p ** e), (r, a, p)


@pytest.mark.parametrize("cone", ["quadric", "square", "cyclic", "pentagon"])
def test_cube_certificate_is_sound(cone, request, monkeypatch):
    # past SEARCH_CAP a q is complete once every chamber holds the cube of
    # side 1/q about its witness; wherever that holds, the decomposition
    # counts every class, and it holds at every q from some bound on
    spec = request.getfixturevalue(cone)
    monkeypatch.setattr(frobenius, "SEARCH_CAP", 0)
    reps = enumerate_classes(spec).reps
    held = [q for q in range(1, 31)
            if all(frobenius._holds_cube(spec, rep, q) for rep in reps)]
    assert held and held == list(range(held[0], 31))
    for q in held:
        assert len(decompose_root(spec, q).counts) == len(reps)
        assert frobenius._complete(spec, q)


def test_dmodule_search_is_held_to_the_root_budget(square, monkeypatch):
    # q = 2 is complete at 8 residues, but p = 3 must list 27
    monkeypatch.setattr(frobenius, "ROOT_BUDGET", 8)
    with pytest.raises(InputError, match="has 27 residues, past the budget of 8"):
        dmodule_report(square, 3)


@pytest.mark.parametrize("r,a,p", [(30, 11, 7), (5, 2, 5), (23, 5, 2)])
def test_each_root_is_listed_once(r, a, p, monkeypatch):
    # the minimal-q search, the D-module search and the decomposition at
    # the minimal q share one listing per q
    listed = []
    real = frobenius._residue_classes
    monkeypatch.setattr(frobenius, "_residue_classes",
                        lambda spec, q: listed.append(q) or real(spec, q))
    spec = from_normals(2, [(0, 1), (r, -a)])
    report = cli_io.analyze(spec, cli_io.AnalyzeOptions(
        frobenius_minimal=True, dmodule_prime=p))
    qmin = report["frobenius"]["minimal_complete_q"]
    e = report["frobenius"]["dmodule"]["minimal_e"]
    powers = {p ** k for k in range(e + 1) if p ** k >= qmin}
    assert sorted(listed) == sorted(set(range(1, qmin + 1)) | powers)


@pytest.mark.parametrize(
    "cone", ["quadric", "square", "cyclic", "orthant2", "orthant3", "pentagon"])
def test_ceiling_table_is_bounded_whatever_q(cone, request):
    # every key is the ceiling vector of a point of (-1, 0]^d, whose entry
    # at i lies in [min(0, 1 - P_i), N_i]
    spec = request.getfixturevalue(cone)
    for p in (2, 3):
        dmodule_report(spec, p)
    decompose_root(spec, 7)
    reps = set(enumerate_classes(spec).reps)
    low = [min(0, 1 - sum(max(x, 0) for x in n)) for n in spec.normals]
    high = [sum(max(-x, 0) for x in n) for n in spec.normals]
    table = frobenius._ceiling_classes(spec)
    assert set(table.values()) <= reps
    for c in table:
        assert all(lo <= x <= hi for lo, x, hi in zip(low, c, high)), c


def test_bad_inputs(quadric):
    for bad in (0, True, 2.0):
        with pytest.raises(InputError, match="root index"):
            decompose_root(quadric, bad)
    with pytest.raises(InputError):
        dmodule_report(quadric, 4)


@pytest.mark.parametrize(
    "cone", ["quadric", "square", "cyclic", "orthant2", "orthant3", "pentagon"])
def test_decomposition_matches_definition(cone, request):
    # one summand per v in {0..q-1}^d: the class of the chamber of -v/q
    spec = request.getfixturevalue(cone)
    for q in (1, 2, 3, 4):
        want = Counter(
            canonical_class(spec, chamber_of(spec, [Fraction(-x, q) for x in v]))
            for v in product(range(q), repeat=spec.rank))
        assert decompose_root(spec, q).counts == tuple(sorted(want.items()))


def _trial_division(p):
    return p >= 2 and all(p % k for k in range(2, math.isqrt(p) + 1))


def test_primality_matches_trial_division():
    below = range(10 ** 5)
    assert ([p for p in below if _is_prime(p)]
            == [p for p in below if _trial_division(p)])
    # a Carmichael number, the least strong pseudoprime to the bases 2, 3,
    # 5 and 7, and 2^61 -+ 1
    for p in (561, 3215031751):
        assert not _is_prime(p) and not _trial_division(p)
    assert _is_prime(2 ** 61 - 1)
    assert not _is_prime(2 ** 61 + 1)  # divisible by 3


def test_primality_refused_past_the_proven_bound(quadric):
    assert not _is_prime(PRIME_BOUND - 1)  # even
    for p in (PRIME_BOUND, 2 ** 89 - 1):
        with pytest.raises(InputError, match=str(PRIME_BOUND)):
            _is_prime(p)
        with pytest.raises(InputError, match=str(PRIME_BOUND)):
            dmodule_report(quadric, p)
