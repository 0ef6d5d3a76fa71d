"""Chambers of constancy and their isomorphism classes.

A point v determines the module of lattice points of the shifted cone
C + v, and that module depends on v only through the ceiling vector
c_i = ceil(<v, n_i>).  The set of points sharing a ceiling vector is the
chamber of c: the half-open box system c_i - 1 < <x, n_i> <= c_i.  Two
chambers give isomorphic modules exactly when their ceiling vectors
differ by an element of the pairing lattice, the image of the lattice
under m |-> (<m, n_i>)_i, so every chamber question has one answer per
class, read off its representative's cells (``cells.chamber_gate``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

from . import ratgeom
from .cells import (
    _lattice_pivots,
    _preimage,
    box_vertices,
    chamber_cells,
    chamber_gate,
    require_gate,
    vertex_barycenter,
)
from .cone import ConeSpec, per_cone
from .errors import InputError
from .ratgeom import IntVec, RatVec, dot, intvec, sub


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


def is_feasible(spec: ConeSpec, c) -> bool:
    """Whether any point has this ceiling vector: its class has cells."""
    return bool(chamber_gate(spec, c)[2])


def chamber_witness(spec: ConeSpec, c) -> RatVec | None:
    """An interior point of the chamber, or None: the barycenter of its
    closed box, the closure of its open cell."""
    cc, _, cells = chamber_gate(spec, c)
    if not cells:
        return None
    return vertex_barycenter(spec, box_vertices(spec, cc))


def degree(c) -> int:
    """Grading of the chamber: minus the sum of the ceiling entries."""
    return -sum(intvec(c))


def require_chamber(spec: ConeSpec, c) -> IntVec:
    """The ceiling vector as a tuple; InputError unless it is a chamber."""
    return require_gate(spec, c)[0]


def leq(spec: ConeSpec, c, cp) -> bool:
    """Submodule order: the module of c is contained in the module of cp.

    Containment of shifted-cone modules reverses the entrywise order on
    ceiling vectors.
    """
    a = require_chamber(spec, c)
    b = require_chamber(spec, cp)
    return all(x >= y for x, y in zip(a, b))


def translation_lattice(spec: ConeSpec) -> tuple[IntVec, ...]:
    """HNF basis of the lattice of pairing vectors of lattice points."""
    return tuple(row for _, _, row in _lattice_pivots(spec))


def canonical_class(spec: ConeSpec, c) -> IntVec:
    """Canonical representative of the chamber's isomorphism class, the
    HNF reduction of c; InputError unless c is a chamber."""
    return require_gate(spec, c)[1]


def iso_witness(spec: ConeSpec, c, cp) -> IntVec | None:
    """Lattice point m with c = cp + pairing(m), or None."""
    a = require_chamber(spec, c)
    b = require_chamber(spec, cp)
    return _preimage(spec, sub(a, b))


def is_adjacent(spec: ConeSpec, c, cp) -> bool:
    """Whether two chambers share a wall.

    The ceiling vectors must differ by one in exactly one coordinate i,
    and the lower one, min(a, b), must have the cell pinning i alone.
    """
    a, _, cells_a = require_gate(spec, c)
    b, _, cells_b = require_gate(spec, cp)
    diffs = [i for i in range(len(a)) if a[i] != b[i]]
    if len(diffs) != 1 or abs(a[diffs[0]] - b[diffs[0]]) != 1:
        return False
    omega = tuple(j for j in range(len(a)) if j != diffs[0])
    return any(cell.omega == omega for cell in (cells_a if a < b else cells_b))


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
        """Label of a representative: a binary search of the sorted reps;
        ValueError when rep is none of them."""
        i = bisect_left(self.reps, rep)
        if i == len(self.reps) or self.reps[i] != rep:
            raise ValueError(f"{rep!r} is not a class representative")
        return self.labels[i]

    def rep_of(self, label: str) -> IntVec:
        if label not in self.labels:
            raise InputError(f"unknown class label {label!r}")
        return self.reps[self.labels.index(label)]


@per_cone
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
            rep = chamber_gate(
                spec, tuple(x + (j == i) for j, x in enumerate(cur)))[1]
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
