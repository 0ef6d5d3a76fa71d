"""Reference cells of a chamber, read straight from the definition.

The cell of chamber c with strip set omega is the set of points with
<x, n_i> = c_i for i outside omega and c_i - 1 < <x, n_i> < c_i for i in
omega.  The oracle asks Fourier-Motzkin whether each of the 2^t systems
has a point, with no pruning, so it shares nothing with the vertex and
face reading of ``conic.cells`` and is only fit for small t.  The
incidence sign is read the same way, from a Fourier-Motzkin point of
each cell of a facet pair, and again as the determinant of the two
orientation frames (``frame_det_sign``), against which the parity of
``conic.cells.incidence_sign`` is checked.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from conic.cells import _frame, ceiling_vector
from conic.errors import InputError, InternalInvariantError
from conic.ratgeom import (
    EQ, LE, LT, dot, echelon, feasible, rank, solve, sub, system)


def det(rows):
    """Exact determinant of a square matrix with int or Fraction entries,
    from one ``echelon``.

    The result is an int when every entry is an integer.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise InputError("determinant of a non-square matrix")
    ech, pivots, sign = echelon(rows, n)
    if len(pivots) < n:
        return 0
    value = sign * ech[-1][-1] if n else 1
    if all(type(x) is int for r in rows for x in r):
        return value
    # echelon scales each row by its least common denominator
    den = math.prod(math.lcm(*(x.denominator for x in r)) for r in rows)
    return value if den == 1 else Fraction(value, den)


def frame_det_sign(spec, inner, outer):
    """Incidence sign of the facet pair of strip sets inner < outer as the
    sign of det([v; frame(inner)]) on the outer frame's free columns times
    that of <v, n>, for the normal n that inner pins and outer leaves as a
    strip and the first outer frame vector v with <v, n> != 0."""
    n = spec.normals[next(i for i in outer if i not in inner)]
    fo = _frame(spec, outer)
    v = next((v for v in fo if dot(v, n) != 0), None)
    # An RREF kernel vector is zero after its own free column, so each
    # frame vector's last nonzero entry names that column.
    cols = [max(j for j, x in enumerate(w) if x != 0) for w in fo]
    fi = _frame(spec, inner)
    sign = 0 if v is None else (
        det([[w[j] for j in cols] for w in (v,) + fi]) * dot(v, n))
    if sign == 0:
        raise InternalInvariantError("degenerate orientation frames")
    return 1 if sign > 0 else -1


def region_system(spec, c, eq=(), open_=()):
    """Half-open chamber system with optional per-index overrides.

    Index in ``eq``: equality <x, n_i> = c_i.  Index in ``open_``: open
    strip c_i - 1 < <x, n_i> < c_i.  Otherwise the half-open default
    c_i - 1 < <x, n_i> <= c_i.
    """
    cc = ceiling_vector(spec, c)
    rows = []
    for i, n in enumerate(spec.normals):
        if i in eq:
            rows.append((n, EQ, cc[i]))
            continue
        rows.append((n, LT if i in open_ else LE, cc[i]))
        rows.append((tuple(-x for x in n), LT, 1 - cc[i]))
    return system(spec.rank, rows)


def oracle_cells(spec, c):
    """(omega, codim) of every nonempty cell, sorted by (codim, omega)."""
    t = len(spec.normals)
    found = []
    for k in range(t + 1):
        for pinned in combinations(range(t), k):
            omega = tuple(i for i in range(t) if i not in pinned)
            if feasible(region_system(spec, c, eq=pinned, open_=omega)):
                found.append(
                    (omega, rank([spec.normals[i] for i in pinned])))
    return sorted(found, key=lambda cell: (cell[1], cell[0]))


@lru_cache(maxsize=None)
def _fm_witness(spec, cell):
    pinned = tuple(i for i in range(len(spec.normals)) if i not in cell.omega)
    return solve(region_system(spec, cell.chamber, eq=pinned, open_=cell.omega))


def oracle_sign(spec, inner, outer):
    """Incidence sign of a facet pair from two interior points.

    Fourier-Motzkin finds a point of each cell; their difference u is an
    outward vector in the outer direction space, and the sign compares
    [u; frame(inner)] with frame(outer) on the outer frame's free columns.
    """
    u = sub(_fm_witness(spec, inner), _fm_witness(spec, outer))
    t = len(spec.normals)
    assert all(dot(u, spec.normals[i]) == 0
               for i in range(t) if i not in outer.omega)
    fo = _frame(spec, outer.omega)
    fi = _frame(spec, inner.omega)
    cols = [max(j for j, x in enumerate(v) if x != 0) for v in fo]
    det_a = det([[u[j] for j in cols]] + [[v[j] for j in cols] for v in fi])
    det_b = det([[v[j] for j in cols] for v in fo])
    assert det_a != 0 and det_b != 0
    return 1 if (det_a > 0) == (det_b > 0) else -1
