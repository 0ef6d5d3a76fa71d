"""Reference class search: the breadth-first search over +e_i steps.

``enumerate_classes`` below is the search as it stood before
``conic.chambers.enumerate_classes`` cut the base parallelepipeds.  It
reads cell patterns, the (omega, codim) of each cell, through the
engine's chamber gate, so on a cone whose classes were already
enumerated it reads the patterns the walk handed off;
give it a freshly built cone to have every class read its own box.
"""

from conic.cells import chamber_gate, class_pattern
from conic.chambers import canonical_class


def enumerate_classes(spec):
    """All isomorphism classes, by breadth-first search over +e_i steps;
    the lex sorted canonical representatives.

    c + e_i is a chamber exactly when a cell of c pins i.  If x in c has
    <x, n_i> = c_i, then n_i, being irredundant, is not in the cone of
    the other normals pinned at x, so by Farkas a small move raising
    <x, n_i> and lowering none of those enters c + e_i.  Conversely, a
    segment from c to c + e_i stays in the convex strip of the other
    indices and meets <x, n_i> = c_i inside c.

    The search is complete.  A chamber holds x - eps u for x in it and u
    in the interior of the cone, so it has interior points p.  Pick u
    with coordinates independent over Q: p + s u crosses walls only
    upward, one at a time for generic p, each at a point of the lower
    chamber pinning the crossed index, and it is dense modulo Z^d, so for
    some s < 0 it lies inside a translate of the free chamber.  Lattice
    translation commutes with steps and keeps cells, so walking over
    canonical representatives from the free class misses no class.
    """
    t = len(spec.normals)
    start = canonical_class(spec, tuple(0 for _ in range(t)))
    seen = {start}
    queue = [start]
    for cur in queue:
        pattern = class_pattern(spec, cur)
        for i in range(t):
            if all(i in omega for omega, _ in pattern):
                continue
            rep = chamber_gate(
                spec, tuple(x + (j == i) for j, x in enumerate(cur)))[1]
            if rep not in seen:
                seen.add(rep)
                queue.append(rep)
    return tuple(sorted(seen))
