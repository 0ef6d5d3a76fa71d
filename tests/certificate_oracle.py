"""Reference certificate for ``conic.complexes._certified``.

The certificate asks, for a chamber c, whether some point x has
<x, n_i> > c_i - 1 for every normal, > c_i on a set A and <= c_i on a
set B.  ``has_point`` decides that system as written, strict bounds
and all, by Fourier-Motzkin elimination (``ratgeom.feasible``): no
homogenisation, no double description and no region walk, so the
tests compare the regions ``complexes._regions`` finds with it.

``systems`` lists the (A, B) pairs of a complex at c whose summands
step 0 or 1 above c, read off its terms: every nonempty subset A of the
set T of normals where some summand steps up, with B = T - A, and
({j}, T) for each j outside T.  ``certified`` asks each of them whose
slice has homology, the slice taken at y = c plus 1 on A by
``graded_piece`` and ranked by ``homology_ranks``, with no survival
mask and no shared table.
"""

from itertools import combinations

from conic.complexes import graded_piece, homology_ranks
from conic.ratgeom import LE, LT, feasible, system


def has_point(spec, c, above, at) -> bool:
    """Whether some x has <x, n_i> > c_i - 1 for every i, > c_i for i in
    above and <= c_i for i in at (sets of normal indices)."""
    rows = []
    for i, (n, ci) in enumerate(zip(spec.normals, c)):
        rows.append((tuple(-x for x in n), LT, -ci if i in above else 1 - ci))
        if i in at:
            rows.append((n, LE, ci))
    return feasible(system(spec.rank, rows))


def pinned(cx) -> frozenset:
    """T: the normals where some summand of cx steps above its chamber."""
    c = cx.chamber
    return frozenset(i for row in cx.terms for vec in row
                     for i, (x, ci) in enumerate(zip(vec, c)) if x > ci)


def systems(cx):
    """The (above, at) pairs of normal sets the certificate may ask of
    the complex cx at its chamber."""
    c = cx.chamber
    tee = pinned(cx)
    for size in range(1, len(tee) + 1):
        for a in combinations(sorted(tee), size):
            yield frozenset(a), tee - frozenset(a)
    for j in range(len(c)):
        if j not in tee:
            yield frozenset({j}), tee


def certified(spec, cx) -> bool:
    """Whether no system of ``systems`` whose slice has homology has a
    point."""
    c = cx.chamber
    zero = (0,) * spec.rank
    for above, at in systems(cx):
        y = tuple(x + (i in above) for i, x in enumerate(c))
        if (any(homology_ranks(graded_piece(spec, cx, y, zero)))
                and has_point(spec, c, above, at)):
            return False
    return True
