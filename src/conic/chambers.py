"""Chambers of constancy and their isomorphism classes.

A point v determines the module of lattice points of the shifted cone
C + v, and that module depends on v only through the ceiling vector
c_i = ceil(<v, n_i>).  The set of points sharing a ceiling vector is the
chamber of c: the half-open box system c_i - 1 < <x, n_i> <= c_i.  Two
chambers give isomorphic modules exactly when their ceiling vectors
differ by an element of the pairing lattice, the image of the lattice
under m |-> (<m, n_i>)_i, so every chamber question has one answer per
class, read off its representative's cell pattern (``cells.chamber_gate``).
The class list labels the representatives of the class walk
(``cells.class_walk``), which also fills the pattern table.
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
    chamber_gate,
    class_walk,
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
    cc, _, pattern = chamber_gate(spec, c)
    if not pattern:
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
    a, _, pattern_a = require_gate(spec, c)
    b, _, pattern_b = require_gate(spec, cp)
    diffs = [i for i in range(len(a)) if a[i] != b[i]]
    if len(diffs) != 1 or abs(a[diffs[0]] - b[diffs[0]]) != 1:
        return False
    omega = tuple(j for j in range(len(a)) if j != diffs[0])
    return any(o == omega for o, _ in (pattern_a if a < b else pattern_b))


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
    """All isomorphism classes: the representatives of the class walk,
    one per leaf of a cut of the base parallelepipeds (``cells.class_walk``
    has the proof that each class is reached once), labeled."""
    reps = class_walk(spec)
    start = (0,) * len(spec.normals)
    labels = [""] * len(reps)
    labels[reps.index(start)] = "A0"
    k = 1
    for i, rep in enumerate(reps):
        if rep != start:
            labels[i] = f"A{k}"
            k += 1
    return ClassList(reps=reps, labels=tuple(labels))

