"""Exact rational linear algebra and linear feasibility.

Everything works over arbitrary-precision integers and fractions.Fraction;
no floating point is used anywhere in the package.  Feasibility of systems
mixing weak (<=) and strict (<) inequalities is decided by Fourier-Motzkin
elimination that carries a strictness flag per constraint: a derived
constraint is strict exactly when one of its parents is.  For rational data
this decides feasibility over the reals, and back-substitution through the
elimination levels produces an exact rational witness point; the tests
use it as the exact reference, and nothing in the package calls it.
Ranks, linear solves, kernels and the inverse of a greedy base of rows
(``base_inverse``) all read from one fraction-free (Bareiss) elimination,
``echelon``, and one integer back-substitution.  That inverse seeds every
double-description pass and gives every lattice preimage
(``lattice_witness``).  Smith normal form alternates Hermite forms of the
rows and of the columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import InputError, InternalInvariantError

IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]

EQ = "=="
LE = "<="
LT = "<"

_RELATIONS = (EQ, LE, LT)


def _rational(v) -> Fraction:
    try:
        return Fraction(v)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise InputError(f"expected a rational entry, got {v!r}") from None


def ratvec(values: Iterable) -> RatVec:
    return tuple(map(_rational, values))


def intvec(values: Iterable) -> IntVec:
    out = []
    for v in values:
        if type(v) is not int:
            f = _rational(v)
            if f.denominator != 1:
                raise InputError(f"expected integer entry, got {v!r}")
            v = int(f)
        out.append(v)
    return tuple(out)


def dot(u: Sequence, v: Sequence):
    if len(u) != len(v):
        raise InputError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def add(u: Sequence, v: Sequence) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def sub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def neg(u: Sequence) -> tuple:
    return tuple(-a for a in u)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        # Maintain the invariants: x*a + y*b == g, nx*a + ny*b == ng.
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def primitive(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the (positive) gcd of its entries."""
    if not any(v):
        raise InputError("cannot primitivize the zero vector")
    g = 0
    for a in v:
        g = math.gcd(g, a)
    return tuple(a // g for a in v)


# --------------------------------------------------------------------------
# linear systems


@dataclass(frozen=True)
class Constraint:
    coeffs: RatVec
    rel: str
    rhs: Fraction

    @staticmethod
    def of(coeffs, rel, rhs) -> "Constraint":
        if rel not in _RELATIONS:
            raise InputError(f"unknown relation {rel!r}")
        return Constraint(ratvec(coeffs), rel, Fraction(rhs))


@dataclass(frozen=True)
class LinSystem:
    dim: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        for con in self.constraints:
            if len(con.coeffs) != self.dim:
                raise InputError(
                    f"constraint has {len(con.coeffs)} coefficients "
                    f"in a {self.dim}-dimensional system")


def system(dim: int, rows: Iterable[tuple]) -> LinSystem:
    """Build a LinSystem from (coeffs, rel, rhs) triples."""
    return LinSystem(dim, tuple(Constraint.of(c, r, b) for c, r, b in rows))


# Internal inequality form: (coeffs, rhs, strict) over the integers, meaning
# coeffs . x <= rhs, or coeffs . x < rhs when strict.  Rows are scaled to
# integers with overall gcd 1 so that duplicates collide under dedup.

def _scaled(coeffs, rhs, strict):
    *ints, r = _integral((*coeffs, rhs))
    return _renorm(tuple(ints), r, strict)


def _renorm(coeffs, rhs, strict):
    g = 0
    for a in coeffs:
        g = math.gcd(g, a)
    g = math.gcd(g, rhs)
    if g > 1:
        coeffs = tuple(a // g for a in coeffs)
        rhs //= g
    return coeffs, rhs, strict


def _rows_of(sys: LinSystem):
    rows = []
    for con in sys.constraints:
        if con.rel == EQ:
            rows.append(_scaled(con.coeffs, con.rhs, False))
            rows.append(_scaled(neg(con.coeffs), -con.rhs, False))
        elif con.rel == LE:
            rows.append(_scaled(con.coeffs, con.rhs, False))
        else:
            rows.append(_scaled(con.coeffs, con.rhs, True))
    return rows


def _dedup(rows):
    # Keep only the strongest constraint per coefficient vector: smaller rhs
    # wins, and for equal rhs the strict one wins.
    best = {}
    for coeffs, rhs, strict in rows:
        cur = best.get(coeffs)
        if cur is None or (rhs, not strict) < (cur[0], not cur[1]):
            best[coeffs] = (rhs, strict)
    return [(c, r, s) for c, (r, s) in best.items()]


def _sift_constants(rows):
    """Drop constant rows, returning (rows, still_feasible)."""
    out = []
    for coeffs, rhs, strict in rows:
        if any(coeffs):
            out.append((coeffs, rhs, strict))
        elif rhs < 0 or (rhs == 0 and strict):
            return out, False
    return out, True


def _eliminate(sys: LinSystem):
    """Fourier-Motzkin elimination of every variable.

    Returns the list of (var, rows_touching_var) levels for back-substitution,
    or None when the system is infeasible.
    """
    rows, ok = _sift_constants(_dedup(_rows_of(sys)))
    if not ok:
        return None
    remaining = list(range(sys.dim))
    levels = []
    while remaining:

        def cost(k):
            pos = sum(1 for c, _, _ in rows if c[k] > 0)
            neg_ = sum(1 for c, _, _ in rows if c[k] < 0)
            return (pos * neg_, k)

        var = min(remaining, key=cost)
        touching = [row for row in rows if row[0][var] != 0]
        passing = [row for row in rows if row[0][var] == 0]
        levels.append((var, touching))
        uppers = [row for row in touching if row[0][var] > 0]
        lowers = [row for row in touching if row[0][var] < 0]
        new = list(passing)
        for uc, ur, us in uppers:
            for lc, lr, ls in lowers:
                p = uc[var]
                q = -lc[var]
                coeffs = tuple(q * a + p * b for a, b in zip(uc, lc))
                new.append(_renorm(coeffs, q * ur + p * lr, us or ls))
        rows, ok = _sift_constants(_dedup(new))
        if not ok:
            return None
        remaining.remove(var)
    return levels


def feasible(sys: LinSystem) -> bool:
    return _eliminate(sys) is not None


def _pick(lo, hi):
    # lo/hi are (bound, strict) or None; the interval is nonempty by
    # construction because elimination already certified feasibility.
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return hi[0] - 1 if hi[1] else hi[0]
    if hi is None:
        return lo[0] + 1 if lo[1] else lo[0]
    if lo[0] > hi[0] or (lo[0] == hi[0] and (lo[1] or hi[1])):
        raise InternalInvariantError("empty interval after feasible elimination")
    if lo[0] == hi[0]:
        return lo[0]
    return (lo[0] + hi[0]) / 2


def solve(sys: LinSystem) -> Optional[RatVec]:
    """Exact rational witness for a mixed weak/strict system, or None.

    The witness satisfies every strict constraint strictly, so for systems
    describing a locally closed polyhedron it is a relative interior point.
    """
    levels = _eliminate(sys)
    if levels is None:
        return None
    value = [Fraction(0)] * sys.dim
    for var, rows in reversed(levels):
        lo = None
        hi = None
        for coeffs, rhs, strict in rows:
            rest = Fraction(rhs) - sum(
                coeffs[j] * value[j] for j in range(sys.dim)
                if j != var and coeffs[j])
            a = coeffs[var]
            bound = rest / a
            if a > 0:
                if hi is None or bound < hi[0] or (bound == hi[0] and strict):
                    hi = (bound, strict)
            else:
                if lo is None or bound > lo[0] or (bound == lo[0] and strict):
                    lo = (bound, strict)
        value[var] = _pick(lo, hi)
    return tuple(value)


# --------------------------------------------------------------------------
# the exact elimination kernel and what reads from it


def _denominator(row) -> int:
    """Least common denominator of a row of int or Fraction entries."""
    return math.lcm(*(x.denominator for x in row))


def _integral(row) -> list[int]:
    """The row scaled by its least common denominator, a positive integer;
    a row of ints is its own scaling, and is only copied."""
    if all(type(x) is int for x in row):
        return list(row)
    den = _denominator(row)
    return [x.numerator * (den // x.denominator) for x in row]


def echelon(rows: Sequence[Sequence],
            ncols: int) -> tuple[list[list[int]], tuple[int, ...], int]:
    """Fraction-free row echelon form of a rational matrix (Bareiss, 1968).

    Each row is first scaled by the least common denominator of its
    entries, which is 1 for a row of ints.  The scale is a positive integer, so the rank, the pivot
    columns, the solution set and the sign of the determinant are kept.
    Pivots are sought only in the first ncols columns; further columns,
    such as an augmented right-hand side, ride along.

    Returns (int_rows, pivots, sign).  Row k < len(pivots) has its
    leading entry in column pivots[k]; the remaining rows vanish on the
    first ncols columns; sign is the sign of the row permutation.  Every
    entry is an exact minor of the scaled matrix, so for a nonsingular
    square matrix sign * int_rows[-1][-1] is its (scaled) determinant.
    """
    mat = [_integral(r) for r in rows]
    nrows = len(mat)
    pivots: list[int] = []
    sign = 1
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if mat[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            mat[r], mat[piv] = mat[piv], mat[r]
            sign = -sign
        top = mat[r]
        p = top[c]
        for i in range(r + 1, nrows):
            f = mat[i][c]
            # Sylvester's identity makes the division exact.
            mat[i] = [(a * p - f * b) // prev for a, b in zip(mat[i], top)]
        prev = p
        pivots.append(c)
    return mat, tuple(pivots), sign


def _back_substitute(ech, pivots, rhs, ncols: int) -> tuple[int, list[int]]:
    """(d, y) for the echelon rows of ``echelon`` against an integer rhs.

    d is the last pivot, the determinant of the pivot block, and y is d
    times the solution with every free variable zero.  By Cramer's rule
    y is integral, so every division below is exact.
    """
    d = ech[len(pivots) - 1][pivots[-1]] if pivots else 1
    y = [0] * ncols
    for k in reversed(range(len(pivots))):
        row = ech[k]
        rest = d * rhs[k] - sum(row[j] * y[j] for j in pivots[k + 1:])
        y[pivots[k]] = rest // row[pivots[k]]
    return d, y


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over Q of a matrix with int or Fraction entries."""
    return len(echelon(rows, len(rows[0]) if rows else 0)[1])


def qrank(rows) -> int:
    """Same as rank; the name stays because the benchmark tracer wraps it."""
    return rank(rows)


def linear_solve(rows: Sequence[Sequence], rhs: Sequence, ncols: int) -> Optional[RatVec]:
    """Exact solution of rows . x = rhs in ncols unknowns, or None.

    Free variables are set to zero, which makes the solution unique; None
    means the system is inconsistent.
    """
    if len(rhs) != len(rows):
        raise InputError("right-hand side length does not match the matrix")
    ech, pivots, _ = echelon([list(row) + [b] for row, b in zip(rows, rhs)], ncols)
    if any(row[ncols] for row in ech[len(pivots):]):
        return None
    d, y = _back_substitute(ech, pivots, [row[ncols] for row in ech], ncols)
    return tuple(Fraction(v, d) for v in y)


def rref_kernel_basis(rows: Sequence[Sequence], ncols: int) -> tuple[IntVec, ...]:
    """Kernel basis from the reduced row echelon form, scaled to integers.

    One basis vector per free column (ascending), each scaled to a primitive
    integer vector whose free coordinate is positive and whose other free
    coordinates are zero.  This is a deterministic basis of the rational
    kernel; it is not in general a basis of the integer kernel lattice.
    """
    ech, pivots, _ = echelon(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        d, vec = _back_substitute(ech, pivots, [-row[fc] for row in ech], ncols)
        vec[fc] = d
        vec = primitive(vec)
        basis.append(vec if d > 0 else neg(vec))
    return tuple(basis)


def base_inverse(rows: Sequence[IntVec],
                 dim: int) -> tuple[tuple[int, ...], int, tuple[IntVec, ...]]:
    """(B, D, cols): the greedy base of the integer rows and its inverse.

    B holds the first dim independent rows, the pivot columns of one
    elimination of the transpose.  One elimination of [N_B | I] then
    gives N_B A = D I for an integer matrix A and D > 0: back-substitution
    against each eliminated identity column yields one column of A, and
    D is the absolute value of the last pivot, |det N_B|.  cols are the
    columns of A, so column j pairs to D with base row j and to zero
    with the other base rows.  InputError if the rows do not span, that
    is if the cone {x : <x, r> >= 0 for all rows r} is not pointed.
    """
    base = echelon([[r[j] for r in rows] for j in range(dim)], len(rows))[1]
    if len(base) < dim:
        raise InputError("rows do not span: solution cone is not pointed")
    ech, pivots, _ = echelon(
        [list(rows[i]) + [int(i == k) for k in base] for i in base], dim)
    d = ech[-1][dim - 1] if dim else 1
    cols = tuple(
        tuple(x if d > 0 else -x for x in _back_substitute(
            ech, pivots, [row[dim + j] for row in ech], dim)[1])
        for j in range(dim))
    return base, abs(d), cols


def lattice_witness(rows: Sequence[IntVec], inverse, h: Sequence[int]) -> Optional[IntVec]:
    """The integer m with <m, rows[i]> = h[i] for every i, or None.

    inverse is ``base_inverse(rows, dim)``.  The rows span, so m is
    unique if it exists, and the base rows force m = A h_B / D: m
    exists exactly when D divides A h_B and every row pairs to h.
    """
    base, det_b, cols = inverse
    m = []
    for k in range(len(cols)):
        q, r = divmod(sum(h[i] * col[k] for i, col in zip(base, cols)), det_b)
        if r:
            return None
        m.append(q)
    if any(dot(m, row) != hi for row, hi in zip(rows, h)):
        return None
    return tuple(m)


def lattice_solve(rows: Sequence[IntVec], rhs: Sequence[int]) -> Optional[IntVec]:
    """Solve A*m = rhs over the integers; A must have full column rank.

    Returns the unique solution when it is rational and integral, otherwise
    None (also when no rational solution exists at all).
    """
    if len(rhs) != len(rows):
        raise InputError("right-hand side length does not match the matrix")
    nc = len(rows[0]) if rows else 0
    try:
        inverse = base_inverse(rows, nc)
    except InputError:
        raise InputError("matrix does not have full column rank") from None
    return lattice_witness(rows, inverse, rhs)


# --------------------------------------------------------------------------
# Hermite / Smith normal forms and kernels


def _gcd_combine(u: list[int], v: list[int], a: int, b: int) -> tuple[list[int], list[int]]:
    """Unimodular combination of u and v that clears v's entry b against u's a.

    a and b sit at the same position of u and v.  When a divides b, v
    loses b/a times u; otherwise the xgcd pair moves gcd(a, b) into u.
    Either way the new v is zero at that position.
    """
    if a and b % a == 0:
        q = b // a
        return u, [y - q * x for x, y in zip(u, v)]
    g, x, y = xgcd(a, b)
    ag, bg = a // g, b // g
    return ([x * p + y * q for p, q in zip(u, v)],
            [-bg * p + ag * q for p, q in zip(u, v)])


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> tuple[IntVec, ...]:
    """Row-style Hermite normal form of the lattice spanned by the rows.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    and zero rows are dropped; the result is a canonical basis of the row
    lattice.
    """
    mat = [list(intvec(r)) for r in rows if any(r)]
    if not mat:
        return ()
    ncols = len(mat[0])
    top = 0
    for col in range(ncols):
        piv = None
        for i in range(top, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[top], mat[piv] = mat[piv], mat[top]
        for i in range(top + 1, len(mat)):
            if mat[i][col]:
                mat[top], mat[i] = _gcd_combine(
                    mat[top], mat[i], mat[top][col], mat[i][col])
        if mat[top][col] < 0:
            mat[top] = [-x for x in mat[top]]
        for i in range(top):
            q = mat[i][col] // mat[top][col]
            if q:
                mat[i] = [x - q * y for x, y in zip(mat[i], mat[top])]
        top += 1
        if top == len(mat):
            break
    return tuple(tuple(r) for r in mat[:top] if any(r))


def hnf_pivots(basis: Sequence[IntVec]) -> tuple[tuple[int, int, IntVec], ...]:
    """(column, pivot, row) of each HNF row: where its leading entry sits,
    that entry, and the row itself."""
    out = []
    for row in basis:
        col = next(j for j, x in enumerate(row) if x)
        out.append((col, row[col], row))
    return tuple(out)


def reduce_by_pivots(w: Sequence[int], pivots) -> IntVec:
    """Canonical representative of the integer vector w modulo the row
    lattice of an HNF basis, given by its ``hnf_pivots``; w is not
    checked."""
    for col, piv, row in pivots:
        q = w[col] // piv
        if q:
            w = [x - q * y for x, y in zip(w, row)]
    return tuple(w)


def reduce_mod_hnf(v: Sequence[int], basis: Sequence[IntVec]) -> IntVec:
    """Canonical representative of v modulo the row lattice of an HNF basis."""
    return reduce_by_pivots(intvec(v), hnf_pivots(basis))


def functional_kernel_basis(n: Sequence[int]) -> tuple[IntVec, ...]:
    """Basis of the integer kernel lattice {m : <m, n> = 0} of one functional."""
    d = len(n)
    if not any(n):
        raise InputError("kernel of the zero functional")
    cols = [[1 if i == j else 0 for i in range(d)] for j in range(d)]
    cur = list(map(int, n))
    for j in range(1, d):
        if cur[j] == 0:
            continue
        a, b = cur[0], cur[j]
        g, x, y = xgcd(a, b)
        ag, bg = a // g, b // g
        c0, cj = cols[0], cols[j]
        cols[0] = [x * p + y * q for p, q in zip(c0, cj)]
        cols[j] = [-bg * p + ag * q for p, q in zip(c0, cj)]
        cur[0], cur[j] = g, 0
    for col in cols[1:]:
        if dot(col, n) != 0:
            raise InternalInvariantError("kernel column does not annihilate functional")
    return tuple(tuple(c) for c in cols[1:])


def smith_normal_form(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Nonzero elementary divisors, positive, each dividing the next.

    Hermite forms of the rows and of the columns, unimodular changes of
    basis, alternate until the matrix is diagonal.  This ends: each pass
    replaces the corner entry by a divisor, the gcd of its column or row,
    and a pass that keeps it leaves its row and column clear, as do all
    later passes, which then act on the rest alone.  A gcd/lcm sweep then
    sorts the diagonal into a divisor chain.
    """
    mat = hermite_normal_form(rows)
    while any(x for i, row in enumerate(mat) for j, x in enumerate(row) if i != j):
        mat = hermite_normal_form(zip(*mat))
    divs = [row[i] for i, row in enumerate(mat)]
    changed = True
    while changed:
        changed = False
        for i in range(len(divs) - 1):
            a, b = divs[i], divs[i + 1]
            if b % a:
                g = math.gcd(a, b)
                divs[i], divs[i + 1] = g, a // g * b
                changed = True
    return tuple(divs)
