"""Independent class count: the arithmetic Tutte polynomial at (1, 0).

The classes of chambers are the regions that the toric arrangement
{<x, n_i> in Z} cuts out of the torus R^d / Z^d: a chamber's open box is
a region of R^d, and lattice translation is what identifies two of them.
The number of regions is M(1, 0) for the arrangement's arithmetic Tutte
polynomial (Moci, "A Tutte polynomial for toric arrangements", 2012;
Ehrenborg, Readdy & Slone, "Affine and toric hyperplane arrangements",
2009): the sum over the subsets S of normals of rank d of
(-1)^(|S| - d) m(S), where m(S), the index of the lattice S spans in
Z^d, is the gcd of the d x d minors of S.  No chamber, cell or walk of
the engine is used, only integer determinants.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd


def _det(rows) -> int:
    # Bareiss elimination over the integers
    mat = [list(r) for r in rows]
    n, sign, prev = len(mat), 1, 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if mat[i][k]), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
        prev = mat[k][k]
    return sign * mat[-1][-1] if n else 1


def class_count(normals, rank: int) -> int:
    """sum over S of rank d of (-1)^(|S| - d) m(S); m(S) is 0 exactly
    when S has rank below d, so those subsets add nothing."""
    t = len(normals)
    minors = {s: abs(_det([normals[i] for i in s]))
              for s in combinations(range(t), rank)}
    total = 0
    for size in range(rank, t + 1):
        for s in combinations(range(t), size):
            m = 0
            for sub in combinations(s, rank):
                m = gcd(m, minors[sub])
            total += (-1) ** (size - rank) * m
    return total
