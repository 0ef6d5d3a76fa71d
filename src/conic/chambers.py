"""Chambers of constancy and their isomorphism classes.

A point v determines the module of lattice points of the shifted cone
C + v, and that module depends on v only through the ceiling vector
c_i = ceil(<v, n_i>).  The set of points sharing a ceiling vector is the
chamber of c: the half-open box system c_i - 1 < <x, n_i> <= c_i.  Two
chambers give isomorphic modules exactly when their ceiling vectors
differ by an element of the pairing lattice, the image of the lattice
under m |-> (<m, n_i>)_i.  Every question about a chamber is read off
its cells (``cells.chamber_cells``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import ratgeom
from .cells import ceiling_vector, chamber_cells
from .cone import ConeSpec
from .errors import InputError
from .ratgeom import EQ, LE, LT, IntVec, RatVec, dot, intvec, sub


def pairings(spec: ConeSpec, point) -> RatVec:
    v = ratgeom.ratvec(point)
    if len(v) != spec.rank:
        raise InputError(f"point has length {len(v)}, expected {spec.rank}")
    return tuple(dot(v, n) for n in spec.normals)


def chamber_of(spec: ConeSpec, point) -> IntVec:
    """Ceiling vector of the chamber containing the point."""
    return tuple(math.ceil(p) for p in pairings(spec, point))


def nhat(spec: ConeSpec, m) -> IntVec:
    """Pairing vector (<m, n_i>)_i of a lattice point m."""
    w = intvec(m)
    if len(w) != spec.rank:
        raise InputError(f"lattice point has length {len(w)}, expected {spec.rank}")
    return tuple(dot(w, n) for n in spec.normals)


def region_system(spec: ConeSpec, c, eq=(), open_=()) -> ratgeom.LinSystem:
    """Half-open chamber system with optional per-index overrides.

    Index in ``eq``: equality <x, n_i> = c_i.  Index in ``open_``: open
    strip c_i - 1 < <x, n_i> < c_i.  Otherwise the half-open default
    c_i - 1 < <x, n_i> <= c_i.  The Fourier-Motzkin reference the tests
    check the cell-based answers against; nothing in the package calls it.
    """
    cc = ceiling_vector(spec, c)
    rows = []
    for i, n in enumerate(spec.normals):
        if i in eq:
            rows.append((n, EQ, cc[i]))
            continue
        rows.append((n, LT if i in open_ else LE, cc[i]))
        rows.append((tuple(-x for x in n), LT, 1 - cc[i]))
    return ratgeom.system(spec.rank, rows)


def is_feasible(spec: ConeSpec, c) -> bool:
    """Whether any point has this ceiling vector.  Lattice translation
    keeps cells, so the canonical representative decides: it has a cell."""
    return bool(chamber_cells(spec, _reduce(spec, ceiling_vector(spec, c))))


def chamber_witness(spec: ConeSpec, c) -> RatVec | None:
    """An interior point of the chamber (its open cell's witness), or None."""
    cells = chamber_cells(spec, ceiling_vector(spec, c))
    return cells[0].witness if cells else None


def degree(c) -> int:
    """Grading of the chamber: minus the sum of the ceiling entries."""
    return -sum(intvec(c))


def require_chamber(spec: ConeSpec, c) -> IntVec:
    """The ceiling vector as a tuple; InputError unless it is a chamber."""
    cc = ceiling_vector(spec, c)
    if not is_feasible(spec, cc):
        raise InputError(f"not a chamber: {cc} is infeasible")
    return cc


def leq(spec: ConeSpec, c, cp) -> bool:
    """Submodule order: the module of c is contained in the module of cp.

    Containment of shifted-cone modules reverses the entrywise order on
    ceiling vectors.
    """
    a = require_chamber(spec, c)
    b = require_chamber(spec, cp)
    return all(x >= y for x, y in zip(a, b))


@lru_cache(maxsize=None)
def translation_lattice(spec: ConeSpec) -> tuple[IntVec, ...]:
    """HNF basis of the lattice of pairing vectors of lattice points."""
    cols = [tuple(n[j] for n in spec.normals) for j in range(spec.rank)]
    return ratgeom.hermite_normal_form(cols)


def _reduce(spec: ConeSpec, cc: IntVec) -> IntVec:
    return ratgeom.reduce_mod_hnf(cc, translation_lattice(spec))


def canonical_class(spec: ConeSpec, c) -> IntVec:
    """Canonical representative of the chamber's isomorphism class."""
    return _reduce(spec, require_chamber(spec, c))


def iso_witness(spec: ConeSpec, c, cp) -> IntVec | None:
    """Lattice point m with c = cp + pairing(m), or None."""
    a = require_chamber(spec, c)
    b = require_chamber(spec, cp)
    return ratgeom.lattice_solve(spec.normals, sub(a, b))


def is_adjacent(spec: ConeSpec, c, cp) -> bool:
    """Whether two chambers share a wall.

    The ceiling vectors must differ by one in exactly one coordinate i,
    and the lower one, min(a, b), must have the cell pinning i alone.
    """
    a = require_chamber(spec, c)
    b = require_chamber(spec, cp)
    diffs = [i for i in range(len(a)) if a[i] != b[i]]
    if len(diffs) != 1 or abs(a[diffs[0]] - b[diffs[0]]) != 1:
        return False
    omega = tuple(j for j in range(len(a)) if j != diffs[0])
    cells = chamber_cells(spec, _reduce(spec, min(a, b)))
    return any(cell.omega == omega for cell in cells)


@dataclass(frozen=True)
class ClassList:
    """All isomorphism classes.

    reps are lex sorted canonical representatives; labels align with
    reps, the free class is always labeled A0 and the rest are numbered
    in lex order.
    """

    reps: tuple[IntVec, ...]
    labels: tuple[str, ...]

    def label_of(self, rep: IntVec) -> str:
        return self.labels[self.reps.index(rep)]

    def rep_of(self, label: str) -> IntVec:
        if label not in self.labels:
            raise InputError(f"unknown class label {label!r}")
        return self.reps[self.labels.index(label)]


@lru_cache(maxsize=None)
def enumerate_classes(spec: ConeSpec) -> ClassList:
    """All isomorphism classes, by breadth-first search over +e_i steps.

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
        cells = chamber_cells(spec, cur)
        for i in range(t):
            if all(i in cell.omega for cell in cells):
                continue
            rep = _reduce(spec, tuple(x + (j == i) for j, x in enumerate(cur)))
            if rep not in seen:
                seen.add(rep)
                queue.append(rep)
    reps = tuple(sorted(seen))
    labels = [""] * len(reps)
    labels[reps.index(start)] = "A0"
    k = 1
    for i, rep in enumerate(reps):
        if rep != start:
            labels[i] = f"A{k}"
            k += 1
    return ClassList(reps=reps, labels=tuple(labels))
