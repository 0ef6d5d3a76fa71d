from fractions import Fraction
from itertools import combinations
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conic import enumerate_classes
from conic.complexes import conic_complex
from conic.errors import InputError
from conic.ratgeom import (
    EQ,
    LE,
    LT,
    base_inverse,
    dot,
    feasible,
    functional_kernel_basis,
    hermite_normal_form,
    lattice_solve,
    linear_solve,
    primitive,
    qrank,
    rank,
    reduce_mod_hnf,
    smith_normal_form,
    solve,
    sub,
    system,
    xgcd,
)

import lattice_oracle as oracle
from cell_oracle import det

ints = st.integers(min_value=-30, max_value=30)
rats = ints | st.fractions(min_value=-30, max_value=30, max_denominator=6)


def matrices(entries, max_rows, max_cols, min_rows=1):
    """Matrices of min_rows..max_rows rows of one length in 1..max_cols."""
    return st.tuples(st.integers(min_rows, max_rows), st.integers(1, max_cols)).flatmap(
        lambda mn: st.lists(st.lists(entries, min_size=mn[1], max_size=mn[1]),
                            min_size=mn[0], max_size=mn[0]))


def expansion_det(sub):
    if not sub:
        return 1
    if len(sub) == 1:
        return sub[0][0]
    total = 0
    for j in range(len(sub)):
        sign = -1 if j % 2 else 1
        rest = [row[:j] + row[j + 1:] for row in sub[1:]]
        total += sign * sub[0][j] * expansion_det(rest)
    return total


def minor_rank(rows):
    # oracle: largest k with a nonzero k x k minor
    rows = [list(r) for r in rows]
    m = len(rows)
    n = len(rows[0]) if rows else 0
    for k in range(min(m, n), 0, -1):
        for ris in combinations(range(m), k):
            for cis in combinations(range(n), k):
                sub = [[rows[r][c] for c in cis] for r in ris]
                if expansion_det(sub) != 0:
                    return k
    return 0


@given(st.lists(st.lists(rats, min_size=3, max_size=3), min_size=1, max_size=4))
@example([[Fraction(1, 2), 1, 0], [1, 2, 0]])
@example([[Fraction(1, 2), 1, 0], [1, 1, 0]])
def test_rank_matches_minor_oracle(rows):
    assert rank(rows) == qrank(rows) == minor_rank(rows)


@given(st.lists(st.lists(rats, min_size=3, max_size=3), min_size=3, max_size=3))
def test_det_matches_expansion_and_alternates(rows):
    assert det(rows) == expansion_det(rows)
    swapped = [rows[1], rows[0], rows[2]]
    assert det(swapped) == -det(rows)


@given(ints, ints)
def test_xgcd_bezout(a, b):
    g, x, y = xgcd(a, b)
    assert g == a * x + b * y
    assert g >= 0
    if a or b:
        assert a % g == 0 and b % g == 0


@given(st.lists(ints, min_size=1, max_size=5))
def test_primitive_scales_to_content_one(v):
    if all(x == 0 for x in v):
        with pytest.raises(InputError):
            primitive(v)
        return
    p = primitive(v)
    assert gcd(*(abs(x) for x in p)) == 1 if len(p) > 1 else abs(p[0]) == 1
    # p is the input divided by a positive integer
    ratios = {Fraction(a, b) for a, b in zip(v, p) if b}
    assert len(ratios) == 1
    assert next(iter(ratios)) > 0


def test_feasible_strict_vs_weak():
    # x > 0 and x < 1 is feasible, x > 0 and x <= 0 is not
    assert feasible(system(1, [((-1,), LT, 0), ((1,), LT, 1)]))
    assert not feasible(system(1, [((-1,), LT, 0), ((1,), LE, 0)]))


def test_solve_respects_strictness():
    sys_ = system(2, [((1, 0), LT, 1), ((-1, 0), LT, 0),
                      ((0, 1), LE, 5), ((0, -1), LT, -4)])
    w = solve(sys_)
    assert w is not None
    x, y = w
    assert 0 < x < 1
    assert 4 < y <= 5


def test_solve_equalities():
    assert solve(system(2, [((1, 1), EQ, 3), ((1, -1), EQ, 1)])) == (2, 1)


def test_infeasible_has_no_witness():
    assert solve(system(1, [((1,), LT, 0), ((-1,), LE, 0)])) is None


@given(st.lists(st.lists(ints, min_size=2, max_size=2), min_size=2, max_size=3),
       st.lists(ints, min_size=2, max_size=2))
def test_lattice_solve_round_trip(rows, target):
    rows = [tuple(r) for r in rows]
    assume(rank(rows) == 2)  # full column rank is part of the contract
    rhs = tuple(dot(r, target) for r in rows)
    x = lattice_solve(rows, rhs)
    assert x is not None
    assert tuple(dot(r, x) for r in rows) == rhs


@given(st.lists(st.lists(rats, min_size=3, max_size=3), max_size=4),
       st.lists(rats, min_size=3, max_size=3))
@example(rows=[], x=[1, 2, 3])
def test_linear_solve_consistent_and_inconsistent(rows, x):
    rhs = [dot(r, x) for r in rows]
    with pytest.raises(InputError, match="right-hand side length"):
        linear_solve(rows, rhs + [0], 3)
    sol = linear_solve(rows, rhs, 3)
    assert [dot(r, sol) for r in rows] == rhs
    # column j is a pivot exactly when it raises the rank of columns 0..j-1
    pivots = [j for j in range(3)
              if minor_rank([r[:j + 1] for r in rows]) > minor_rank([r[:j] for r in rows])]
    assert all(sol[j] == 0 for j in range(3) if j not in pivots)
    if rows:
        assert linear_solve(rows + [rows[0]], rhs + [rhs[0] + 1], 3) is None


def test_lattice_solve_detects_non_integral():
    # 2x = 1 has no integer solution
    assert lattice_solve(((2,),), (1,)) is None
    assert lattice_solve(((2,),), (4,)) == (2,)
    with pytest.raises(InputError, match="right-hand side length"):
        lattice_solve(((2,),), (4, 0))


def test_dot_refuses_vectors_of_different_lengths():
    assert dot((1, 2), (3, 4)) == 11
    with pytest.raises(InputError, match="dimension mismatch: 2 vs 3"):
        dot((1, 2), (3, 4, 5))


@given(st.lists(st.lists(ints, min_size=3, max_size=3), min_size=1, max_size=3))
def test_hnf_spans_the_same_lattice(rows):
    h = hermite_normal_form(rows)
    assert len(h) == rank(rows)
    cols = tuple(zip(*h)) if h else ()
    for r in rows:
        if h:
            assert lattice_solve(cols, tuple(r)) is not None
        else:
            assert all(x == 0 for x in r)


@given(st.lists(ints, min_size=3, max_size=3),
       st.lists(st.lists(ints, min_size=3, max_size=3), min_size=1, max_size=3))
def test_reduce_mod_hnf_canonical_on_cosets(v, rows):
    h = hermite_normal_form(rows)
    if not h:
        return
    red = reduce_mod_hnf(v, h)
    assert reduce_mod_hnf(red, h) == red
    diff = tuple(a - b for a, b in zip(v, red))
    assert lattice_solve(tuple(zip(*h)), diff) is not None
    # shifting v by a lattice row does not change the representative
    shifted = tuple(a + b for a, b in zip(v, h[0]))
    assert reduce_mod_hnf(shifted, h) == red


@given(st.lists(st.lists(rats, min_size=4, max_size=4), min_size=1, max_size=3))
def test_rref_kernel_orthogonal_and_full(rows):
    # the reference frame basis that ``cell_oracle`` reads the incidence
    # signs against
    ker = oracle.rref_kernel_basis(rows, 4)
    for k in ker:
        assert all(dot(r, k) == 0 for r in rows)
    assert len(ker) == 4 - rank(rows)
    # canonical shape: one primitive vector per free column, ascending,
    # positive there and zero at every other free column
    free = [j for j in range(4)
            if minor_rank([r[:j + 1] for r in rows]) == minor_rank([r[:j] for r in rows])]
    assert len(free) == len(ker)
    for fc, k in zip(free, ker):
        assert primitive(k) == k
        assert k[fc] > 0
        assert all(k[j] == 0 for j in free if j != fc)


@given(matrices(ints, 5, 4))
@example([[1, 2], [2, 4], [0, 1]])
@example([[2, 4], [1, 2]])
def test_base_inverse_is_the_greedy_base_and_its_scaled_inverse(rows):
    dim = len(rows[0])
    # row i joins the base exactly when it raises the rank of rows 0..i-1
    greedy = tuple(i for i in range(len(rows))
                   if rank(rows[:i + 1]) > rank(rows[:i]))
    if len(greedy) < dim:
        with pytest.raises(InputError, match="rows do not span"):
            base_inverse(rows, dim)
        return
    base, d, cols = base_inverse(rows, dim)
    assert base == greedy
    assert d > 0
    nb = [rows[i] for i in base]
    assert d == abs(det(nb))
    # N_B A = D I exactly, A's columns being cols
    assert [[dot(row, col) for col in cols] for row in nb] == \
        [[d * (i == j) for j in range(dim)] for i in range(dim)]
    assert tuple(map(primitive, cols)) == oracle.inverse_columns(nb)


@given(st.lists(st.lists(rats, min_size=3, max_size=3), min_size=3, max_size=3))
def test_inverse_columns_are_scaled_unit_solutions(rows):
    # rational rows cleared to integers by a positive factor each: the
    # inverse columns of the cleared matrix are positive multiples of the
    # rational matrix's, so each pairs positively with its own row only
    cleared = [[int(x * lcm(*(Fraction(y).denominator for y in row))) for x in row]
               for row in rows]
    if det(rows) == 0:
        with pytest.raises(InputError, match="do not span"):
            base_inverse(cleared, 3)
        return
    base, d, raw = base_inverse(cleared, 3)
    assert base == (0, 1, 2)
    cols = tuple(map(primitive, raw))
    for j, (col, c) in enumerate(zip(cols, raw)):
        g = next(a // b for a, b in zip(c, col) if b)
        assert g > 0 and tuple(g * x for x in col) == c
        assert primitive(col) == col
        pairs = [dot(row, col) for row in rows]
        assert pairs[j] > 0
        assert all(x == 0 for i, x in enumerate(pairs) if i != j)


@given(st.lists(ints, min_size=2, max_size=4))
@example(n=[0, 0, 0])
def test_functional_kernel_is_saturated(n):
    if all(x == 0 for x in n):
        with pytest.raises(InputError, match="kernel of the zero functional"):
            functional_kernel_basis(n)
        return
    basis = functional_kernel_basis(n)
    d = len(n)
    assert len(basis) == d - 1
    for b in basis:
        assert dot(b, n) == 0
    if d == 2:
        assert gcd(abs(basis[0][0]), abs(basis[0][1])) == 1
        return
    # saturated sublattice: the maximal minors of the basis are coprime
    minors = []
    for cis in combinations(range(d), d - 1):
        sub = [[row[c] for c in cis] for row in basis]
        minors.append(expansion_det(sub))
    assert gcd(*(abs(m) for m in minors)) == 1


@given(st.lists(st.lists(ints, min_size=3, max_size=3), min_size=1, max_size=3))
def test_smith_divisibility_chain(rows):
    invs = smith_normal_form(rows)
    assert all(x > 0 for x in invs)
    for a, b in zip(invs, invs[1:]):
        assert b % a == 0
    assert len(invs) == rank(rows)


@given(matrices(ints, 4, 5))
def test_smith_products_are_determinantal_divisors(rows):
    # d_1 ... d_k is the gcd of the k x k minors, and the minors of size
    # above the rank all vanish
    invs = smith_normal_form(rows)
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        minors = [expansion_det([[rows[r][c] for c in cis] for r in ris])
                  for ris in combinations(range(len(rows)), k)
                  for cis in combinations(range(len(rows[0])), k)]
        assert gcd(*minors) == (prod(invs[:k]) if k <= len(invs) else 0)


def test_smith_known_examples():
    assert smith_normal_form([(2, 4), (4, 8)]) == (2,)
    assert smith_normal_form([(1, 0), (0, 1)]) == (1, 1)
    assert smith_normal_form([(2, 0), (0, 3)]) == (1, 6)


def test_integer_routines_reject_fractions():
    with pytest.raises(InputError):
        hermite_normal_form([[Fraction(1, 2), 1]])


def test_qrank_fraction_entries():
    assert qrank(((Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(2)))) == 1
    assert qrank(((Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(1)))) == 2


def _outcome(f, *args):
    try:
        return f(*args)
    except InputError as err:
        return str(err)


@given(matrices(ints, 5, 5))
@example([[2, 4], [4, 8]])
@example([[0, 0, 6], [0, 4, 0]])
def test_smith_matches_oracle(rows):
    assert smith_normal_form(rows) == oracle.smith_normal_form(rows)


@given(matrices(rats, 4, 4, min_rows=0), st.lists(rats, min_size=4, max_size=4),
       st.integers(1, 4))
def test_rational_back_substitution_matches_oracle(rows, rhs, ncols):
    rhs = rhs[:len(rows)]
    ncols = len(rows[0]) if rows else ncols
    sol = linear_solve(rows, rhs, ncols)
    assert sol == oracle.linear_solve(rows, rhs, ncols)
    assert sol is None or all(type(x) is Fraction for x in sol)


@given(matrices(ints, 4, 3), st.lists(ints, min_size=3, max_size=3),
       st.lists(st.integers(-1, 1), min_size=4, max_size=4))
def test_lattice_solve_matches_oracle(rows, x, noise):
    # rhs = rows . x plus a small error, so solvable, non-integral and
    # inconsistent systems all occur
    rhs = [dot(r, x[:len(r)]) + e for r, e in zip(rows, noise)]
    assert _outcome(lattice_solve, rows, rhs) == _outcome(oracle.lattice_solve, rows, rhs)


@pytest.mark.parametrize("name", [
    "quadric", "square", "cyclic", "orthant2", "orthant3", "pentagon",
    "hexagon", "octahedron"])
def test_lattice_routines_match_oracle_on_fixtures(request, name):
    spec = request.getfixturevalue(name)
    d = spec.rank
    # double-description seeds from every square choice of normals
    for base in combinations(spec.normals, d):
        if rank(base) == d:
            assert tuple(map(primitive, base_inverse(base, d)[2])) == \
                oracle.inverse_columns(base)
    # every differential of every chamber complex, and the lattice
    # solves that place its summands
    for c in enumerate_classes(spec).reps:
        cx = conic_complex(spec, c)
        for vec in (v for term in cx.terms for v in term):
            shift = sub(vec, c)
            assert lattice_solve(spec.normals, shift) == \
                oracle.lattice_solve(spec.normals, shift)
        for mat in cx.mats:
            tr = tuple(zip(*mat))
            assert smith_normal_form(mat) == oracle.smith_normal_form(mat)
            assert linear_solve(mat, tr[0], len(tr)) == \
                oracle.linear_solve(mat, tr[0], len(tr))
