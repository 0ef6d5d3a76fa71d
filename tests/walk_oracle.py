"""Reference class walk: two double-description steps per child slab.

``leaves`` below is the walk as it stood before ``conic.cells._cut``
swept each node once.  It shares the root cubes (``cells._cube``) and the
HNF box of their base levels with ``conic.cells.leaves``, and cuts every
child slab v - 1 <= <x, n_j> <= v of a node with two full
``cone._dd_add_row`` steps, the upper bound first, so each step scans
the whole node for adjacent pairs.  The tests compare the two walks
leaf by leaf: the same representatives, with the same tight mask sets.
"""

from itertools import product
from operator import mul

from conic.cells import _base_cube, _cube, _lattice_pivots
from conic.cone import _dd_add_row


def leaves(spec):
    """(ceiling vector, frozenset of its box vertices' tight masks) for
    each class's canonical representative, in walk order."""
    base, _, _, _, masks, cuts = _base_cube(spec)
    c = [0] * len(spec.normals)
    for levels in product(*(range(piv) for _, piv, _ in _lattice_pivots(spec))):
        for i, x in zip(base, levels):
            c[i] = x
        for rep, _, leaf in _cut(*_cube(spec, levels), cuts, c, spec.rank):
            yield rep, frozenset(leaf)


def _cut(rays, masks, cuts, c, d):
    # (c, rays, masks) for each leaf below a closed piece, one child per
    # level v the piece meets, c_j = floor(lo) + 1, ..., ceil(hi)
    if not cuts:
        yield tuple(c), rays, masks
        return
    (i, n), rest = cuts[0], cuts[1:]
    vals = [(sum(map(mul, ray, n)), ray[d]) for ray in rays]
    for v in range(min(p // w for p, w in vals) + 1,
                   max(-(-p // w) for p, w in vals) + 1):
        c[i] = v
        cut = _dd_add_row(
            rays, masks, [v * w - p for p, w in vals], 1 << 2 * i, d + 1)
        cut = _dd_add_row(
            *cut, [sum(map(mul, ray, n)) + (1 - v) * ray[d] for ray in cut[0]],
            2 << 2 * i, d + 1)
        yield from _cut(*cut, rest, c, d)
