"""Reference double description with frozenset tight sets.

``double_description`` below is the pass as it stood before
``conic.cone.double_description`` kept tight sets as int bitmasks and
skipped pairs with too few common tight rows before the adjacency scan.
It seeds every pass with its own two eliminations, the second one the
reference ``lattice_oracle.inverse_columns``, so it shares no inverse
with ``conic.ratgeom.base_inverse``.  The tests compare the two, tight
set by tight set.
"""

from conic import ratgeom
from conic.errors import InputError
from conic.ratgeom import IntVec, dot, primitive

from lattice_oracle import inverse_columns


def tight_set(mask: int) -> frozenset[int]:
    """The set of bits of a tight mask."""
    return frozenset(k for k in range(mask.bit_length()) if mask >> k & 1)


def double_description(rows: tuple[IntVec, ...],
                       dim: int) -> tuple[tuple[IntVec, frozenset[int]], ...]:
    """Extreme rays of {x : <x, r> >= 0 for all r in rows}, each with the
    indices k of its tight rows, <ray, rows[k]> = 0; sorted by ray.

    rows must have rank == dim so the solution cone is pointed.  Seed
    with the first dim independent rows, then add the others one at a
    time; each ray carries its tight set over the rows added so far.  A
    new ray comes from an adjacent pair p, q on either side of the new
    row i and is tight on their common rows and on i.

    Adjacency is combinatorial (Fukuda & Prodon, 1996): p and q are
    adjacent iff no other ray r has tight[p] & tight[q] <= tight[r].
    The smallest face holding p and q is cut out by their common tight
    rows, and its extreme rays are the rays whose tight sets contain
    that set.  It is 2-dimensional, that is p and q are adjacent, iff p
    and q are its only extreme rays.
    """
    # Pivot columns of the transpose are the greedily chosen base rows.
    base = ratgeom.echelon([[r[j] for r in rows] for j in range(dim)], len(rows))[1]
    if len(base) < dim:
        raise InputError("rows do not span: solution cone is not pointed")
    # Seed ray j pairs positively with base row j and to zero with the
    # other base rows: column j of the base's inverse.
    seeds = inverse_columns([rows[i] for i in base])
    tight = {r: frozenset(base) - {i} for i, r in zip(base, seeds)}
    for i in range(len(rows)):
        if i in base:
            continue
        vals = {r: dot(r, rows[i]) for r in tight}
        pos = [r for r in tight if vals[r] > 0]
        neg = [r for r in tight if vals[r] < 0]
        fresh = {}
        for p in pos:
            for q in neg:
                common = tight[p] & tight[q]
                if any(common <= tight[r] for r in tight if r != p and r != q):
                    continue
                w = tuple(vals[p] * qc - vals[q] * pc for pc, qc in zip(p, q))
                fresh[primitive(w)] = common | {i}
        tight = {r: s | {i} if vals[r] == 0 else s
                 for r, s in tight.items() if vals[r] >= 0}
        tight.update(fresh)
    return tuple(sorted(tight.items()))
