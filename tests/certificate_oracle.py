"""Reference slice certificates: what the ``conic.complexes`` docstring
proves for every chamber complex, checked class by class.

The certificate asks, for a chamber c, whether some point x has
<x, n_i> > c_i - 1 for every normal, > c_i on a set A and <= c_i on a
set B.  ``has_point`` decides that system as written, strict bounds
and all, by Fourier-Motzkin elimination (``ratgeom.feasible``): no
homogenisation, no double description and no region walk.

``systems`` lists the (A, B) pairs of a complex at c whose summands
step 0 or 1 above c, read off its terms: every nonempty subset A of the
set T of normals where some summand steps up, with B = T - A, and
({j}, T) for each j outside T.  ``certified`` asks each of them whose
slice has homology, the slice taken at y = c plus 1 on A by
``graded_piece`` and ranked by ``homology_ranks``, with no survival
mask and no shared table.

``exact`` is a second certificate, by double description: ``regions``
walks the regions with a point across their facets, one double
description each, and ``exact`` ranks each region's survival mask into
the rank table of the complex's ``acyclicity_oracle.slices_of``.  The
tests compare the regions it walks with ``has_point``.

Why the certificate decides every window: at window point m the slice
against cp keeps summand k, c plus the 0/1 bumps of the set P_k its
cell pins, iff y = cp + h(m) >= c and P_k lies in S = {i : y_i > c_i};
y is a chamber, and every chamber is one.  With T the union of the P_k
the slice reads only A = S & T, and a chamber y >= c with S & T = A is
the ceiling vector of a point of the region R_A: <x, n_i> > c_i - 1
for every i, > c_i on A and <= c_i on T - A.  So every window of c
passes iff the slice of every nonempty A whose region has a point is
exact and no point of R_{} lies above c_j for a j outside T (there the
open cell alone survives, of rank one, at some y != c); a refused class
has a chamber y whose window of radius 0 fails.  A region has a point
iff its closure, homogenised by s >= 0 to a pointed cone in rank + 1
dimensions, is full-dimensional: from a point x of the region,
x - e u with u inside the cone and e > 0 small makes every bound strict.
"""

from itertools import combinations

from conic.complexes import graded_piece, homology_ranks
from conic.cone import double_description
from conic.ratgeom import LE, LT, dot, feasible, system

from acyclicity_oracle import mask_ranks


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


def exact(spec, c, slices) -> bool:
    """Whether no chamber y >= c other than c gives a slice with homology,
    for a complex at the chamber c whose summands step 0 or 1 above c,
    given by its ``acyclicity_oracle.slices_of``: over the regions that
    ``regions`` finds, up to the first that gives a slice with homology.
    Each mask is ranked once into the slices' rank table."""
    full, levels, ranks_of = slices
    every = (1 << sum(full.dims)) - 1
    # the summands one step above c at each normal, from its lowest level
    pinned = [every ^ below if top == 0 else every
              for (top, below), *_ in levels]
    tee = sum(1 << i for i, bits in enumerate(pinned) if bits)
    for above, rays in regions(spec, c, tee):
        if not above:
            # y_i = c_i on T: only the open cell survives, so no point of
            # the region may lie above c_j for a j outside T
            if any(dot(ray, (*n, -cj)) > 0 for ray, _ in rays
                   for j, (n, cj) in enumerate(zip(spec.normals, c))
                   if not tee >> j & 1):
                return False
            continue
        # the slice keeps the summands pinned inside A alone
        mask = every
        for i, bits in enumerate(pinned):
            if not above >> i & 1:
                mask &= ~bits
        ranks = ranks_of.get(mask)
        if ranks is None:
            ranks = ranks_of[mask] = mask_ranks(full, mask)
        if any(ranks):
            return False
    return True


def regions(spec, c, tee: int):
    """Yield (A, rays) for each subset A of the normals of the bitmask tee
    such that some x has <x, n_i> > c_i - 1 for every i, > c_i on A and
    <= c_i on tee - A, with the ``cone.double_description`` of that
    system's closure homogenised by s >= 0 (row 0 is s >= 0).

    These are the regions of the hyperplanes <x, n_i> = c_i of tee in
    the open polyhedron of the lower bounds, which is convex, so they
    are connected across the facets they have on those hyperplanes.  The
    walk starts at A = {}, which holds the chamber's box, and does one
    double description per region, at most 2^|tee| of them.  A region's
    homogenised closure is a full-dimensional pointed cone (module
    docstring), so a row bounds a facet iff the set of rays tight on it
    is nonempty and strictly inside no other row's; the relative
    interior of a facet on <x, n_i> = c_i lies on no other row and keeps
    the strict bounds, so A with i toggled is a region too.
    """
    d = spec.rank
    seen, todo = {0}, [0]
    while todo:
        above = todo.pop()
        rows, cross = [(0,) * d + (1,)], []
        for i, (n, ci) in enumerate(zip(spec.normals, c)):
            if above >> i & 1:
                cross.append((len(rows), i))
                rows.append((*n, -ci))
            else:
                rows.append((*n, 1 - ci))
                if tee >> i & 1:
                    cross.append((len(rows), i))
                    rows.append((*(-x for x in n), ci))
        rays = double_description(tuple(rows), d + 1)
        yield above, rays
        # zero[k]: the rays tight on row k, bit r for ray r
        zero = [0] * len(rows)
        for r, (_, tight) in enumerate(rays):
            for k in range(len(rows)):
                if tight >> k & 1:
                    zero[k] |= 1 << r
        for k, i in cross:
            z = zero[k]
            if z and not any(o != z and o & z == z for o in zero):
                nb = above ^ 1 << i
                if nb not in seen:
                    seen.add(nb)
                    todo.append(nb)
