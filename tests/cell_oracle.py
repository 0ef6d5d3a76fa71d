"""Reference cells of a chamber, read straight from the definition.

The cell of chamber c with strip set omega is the set of points with
<x, n_i> = c_i for i outside omega and c_i - 1 < <x, n_i> < c_i for i in
omega.  The oracle asks Fourier-Motzkin whether each of the 2^t systems
has a point, with no pruning, so it shares nothing with the vertex and
face reading of ``conic.cells`` and is only fit for small t.
"""

from itertools import combinations

from conic.chambers import region_system
from conic.ratgeom import feasible, rank


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
