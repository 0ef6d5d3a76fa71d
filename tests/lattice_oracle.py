"""Reference back-substitution and Smith normal form.

The ``Fraction`` back-substitution path below (``_back_substitute``,
``_solve``, ``linear_solve``, ``lattice_solve``, ``rref_kernel_basis``
and ``inverse_columns`` with its own integer loop) and the pivot-search
``smith_normal_form`` are ``conic.ratgeom`` as it stood before its
back-substitution became one integer routine and its Smith form became
alternating Hermite forms.  Every output is canonical, so the tests
compare the current code with these functions for equality.
"""

import math
from fractions import Fraction
from typing import Optional, Sequence

from conic.errors import InputError
from conic.ratgeom import (
    IntVec,
    RatVec,
    _gcd_combine,
    _integral,
    echelon,
    intvec,
    neg,
    primitive,
)


def _back_substitute(ech, pivots, rhs, ncols: int) -> list[Fraction]:
    """Solution of the echelon rows against rhs with every free variable zero."""
    x = [Fraction(0)] * ncols
    for k in reversed(range(len(pivots))):
        row = ech[k]
        rest = rhs[k] - sum(row[j] * x[j] for j in pivots[k + 1:])
        x[pivots[k]] = Fraction(rest, row[pivots[k]])
    return x


def _solve(rows, rhs, ncols: int):
    """(pivots, solution with free variables zero), or (pivots, None) if inconsistent."""
    if len(rhs) != len(rows):
        raise InputError("right-hand side length does not match the matrix")
    ech, pivots, _ = echelon([list(row) + [b] for row, b in zip(rows, rhs)], ncols)
    if any(row[ncols] for row in ech[len(pivots):]):
        return pivots, None
    return pivots, _back_substitute(ech, pivots, [row[ncols] for row in ech], ncols)


def linear_solve(rows: Sequence[Sequence], rhs: Sequence, ncols: int) -> Optional[RatVec]:
    """Exact solution of rows . x = rhs in ncols unknowns, or None.

    Free variables are set to zero, which makes the solution unique; None
    means the system is inconsistent.
    """
    sol = _solve(rows, rhs, ncols)[1]
    return None if sol is None else tuple(sol)


def lattice_solve(rows: Sequence[IntVec], rhs: Sequence[int]) -> Optional[IntVec]:
    """Solve A*m = rhs over the integers; A must have full column rank.

    Returns the unique solution when it is rational and integral, otherwise
    None (also when no rational solution exists at all).
    """
    nc = len(rows[0]) if rows else 0
    pivots, sol = _solve(rows, rhs, nc)
    if len(pivots) < nc:
        raise InputError("matrix does not have full column rank")
    if sol is None or any(s.denominator != 1 for s in sol):
        return None
    return tuple(int(s) for s in sol)


def rref_kernel_basis(rows: Sequence[Sequence], ncols: int) -> tuple[IntVec, ...]:
    """Kernel basis from the reduced row echelon form, scaled to integers.

    One basis vector per free column (ascending), each scaled to a primitive
    integer vector whose free coordinate is positive.  This is a deterministic
    basis of the rational kernel; it is not in general a basis of the integer
    kernel lattice.
    """
    ech, pivots, _ = echelon(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = _back_substitute(ech, pivots, [-row[fc] for row in ech], ncols)
        vec[fc] = Fraction(1)
        basis.append(primitive(_integral(vec)))
    return tuple(basis)


def inverse_columns(rows: Sequence[Sequence]) -> tuple[IntVec, ...]:
    """Columns of the inverse of a nonsingular square matrix, each scaled
    by a positive factor to a primitive integer vector.

    One elimination of [rows | I] serves every column.  Its last pivot d
    is the determinant of the (scaled, row-permuted) matrix, so d times
    each column of the inverse is integral, and back-substitution against
    d times the eliminated identity column finds it with exact integer
    divisions.  InputError if the matrix is singular.
    """
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(rows)]
    ech, pivots, _ = echelon(aug, n)
    if len(pivots) < n:
        raise InputError("matrix is singular")
    d = ech[-1][n - 1]
    cols = []
    for j in range(n):
        y = [0] * n
        for k in reversed(range(n)):
            row = ech[k]
            rest = d * row[n + j] - sum(row[l] * y[l] for l in range(k + 1, n))
            y[k] = rest // row[k]
        col = primitive(y)
        cols.append(col if d > 0 else neg(col))
    return tuple(cols)


def smith_normal_form(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Nonzero elementary divisors, positive, each dividing the next."""
    mat = [list(intvec(r)) for r in rows]
    if not mat or not mat[0]:
        return ()
    nr, nc = len(mat), len(mat[0])
    n = min(nr, nc)
    t = 0
    while t < n:
        pos = None
        for i in range(t, nr):
            for j in range(t, nc):
                if mat[i][j]:
                    pos = (i, j)
                    break
            if pos:
                break
        if pos is None:
            break
        i0, j0 = pos
        mat[t], mat[i0] = mat[i0], mat[t]
        for row in mat:
            row[t], row[j0] = row[j0], row[t]
        while True:
            for i in range(t + 1, nr):
                if mat[i][t]:
                    mat[t], mat[i] = _gcd_combine(mat[t], mat[i], mat[t][t], mat[i][t])
            for j in range(t + 1, nc):
                if mat[t][j]:
                    ct, cj = _gcd_combine([row[t] for row in mat],
                                          [row[j] for row in mat], mat[t][t], mat[t][j])
                    for row, p, q in zip(mat, ct, cj):
                        row[t], row[j] = p, q
            if all(mat[i][t] == 0 for i in range(t + 1, nr)) and \
               all(mat[t][j] == 0 for j in range(t + 1, nc)):
                break
        t += 1
    divs = [abs(mat[i][i]) for i in range(t) if mat[i][i]]
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
