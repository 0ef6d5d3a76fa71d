"""Independent class census: every chamber that meets the unit box.

Translating a point by a lattice point m moves its chamber c to
c + (<m, n_i>)_i, which is the same class, and every point translates
into the half-open box [0, 1)^d.  So the classes are exactly the
classes of the chambers that meet the box, and those ceilings lie in
the product of the ranges [sum of negative entries of n_i, sum of
positive entries of n_i].  No grid size is tuned.

Whether chamber c meets the box is decided by a vertex test, without
the engine's Fourier-Motzkin kernel.  The closure Q of the half-open
system (c_i - 1 < <x, n_i> <= c_i, 0 <= x_j < 1) is a polytope whose
vertices are exactly the vertices of the arrangement of the hyperplanes
x_j = 0, x_j = 1 and <x, n_i> = k that lie in Q.  The average of its
vertices lies in its relative interior, where every inequality that is
not an implicit equality of Q holds strictly.  A strict inequality of
the system that holds at some point of Q is not an implicit equality.
So the system is feasible exactly when the vertex average satisfies it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, product


def _det(mat):
    if not mat:
        return 1
    return sum((-1) ** j * mat[0][j] * _det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j in range(len(mat)) if mat[0][j])


def _solve(rows, rhs):
    # Cramer's rule; None when the rows are dependent.
    den = _det(rows)
    if den == 0:
        return None
    return tuple(
        Fraction(_det([r[:j] + (b,) + r[j + 1:] for r, b in zip(rows, rhs)]), den)
        for j in range(len(rows)))


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def box_vertices(normals, d):
    """Vertices in [0, 1]^d of the arrangement x_j in {0, 1}, <x, n_i> in Z."""
    planes = [(tuple(int(i == j) for i in range(d)), k)
              for j in range(d) for k in (0, 1)]
    for n in normals:
        low = sum(x for x in n if x < 0)
        high = sum(x for x in n if x > 0)
        planes += [(tuple(n), k) for k in range(low, high + 1)]
    found = set()
    for chosen in combinations(planes, d):
        x = _solve([a for a, _ in chosen], [k for _, k in chosen])
        if x is not None and all(0 <= t <= 1 for t in x):
            found.add(x)
    return found


def box_chambers(spec):
    """Ceiling vectors of every chamber that meets [0, 1)^d, sorted."""
    normals = spec.normals
    closures = defaultdict(list)
    for v in box_vertices(normals, spec.rank):
        # v lies in the closure of c when c_i - 1 <= <v, n_i> <= c_i
        choices = []
        for n in normals:
            p = _dot(v, n)
            k = math.ceil(p)
            choices.append((k, k + 1) if k == p else (k,))
        for c in product(*choices):
            closures[c].append(v)
    found = []
    for c, verts in closures.items():
        mid = tuple(sum(col) / len(verts) for col in zip(*verts))
        if all(t < 1 for t in mid) and all(
                _dot(mid, n) > ci - 1 for n, ci in zip(normals, c)):
            found.append(c)
    return sorted(found)


def box_census(spec):
    """One chamber per class: the lex-first of those meeting the box."""
    normals = spec.normals
    # any rank normals that are independent pin down a lattice point
    basis = next(rows for rows in combinations(normals, spec.rank) if _det(rows))
    place = [normals.index(n) for n in basis]
    reps = []
    for c in box_chambers(spec):
        for r in reps:
            diff = [a - b for a, b in zip(c, r)]
            m = _solve(basis, [diff[i] for i in place])
            if all(t.denominator == 1 for t in m) and all(
                    _dot(m, n) == x for n, x in zip(normals, diff)):
                break
        else:
            reps.append(c)
    return reps
