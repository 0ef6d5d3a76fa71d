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
    return all(x >= y for x, y in zip(require_chamber(spec, c),
                                      require_chamber(spec, cp)))


def translation_lattice(spec: ConeSpec) -> tuple[IntVec, ...]:
    """HNF basis of the lattice of pairing vectors of lattice points."""
    return tuple(row for _, _, row in _lattice_pivots(spec))


def canonical_class(spec: ConeSpec, c) -> IntVec:
    """Canonical representative of the chamber's isomorphism class, the
    HNF reduction of c; InputError unless c is a chamber."""
    return require_gate(spec, c)[1]


def iso_witness(spec: ConeSpec, c, cp) -> IntVec | None:
    """Lattice point m with c = cp + pairing(m), or None."""
    return _preimage(spec, sub(require_chamber(spec, c), require_chamber(spec, cp)))


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
    """All isomorphism classes: reps, the lex sorted canonical
    representatives of the class walk, and free, the index of the free
    class, the zero vector.

    No label is stored.  One rule (``label_at``) labels reps[i] from its
    index: the free class is A0 and the rest are A1, A2, ... in lex
    order.  ``rep_of`` inverts it, and ``label_of`` finds a
    representative's index by binary search.
    """

    reps: tuple[IntVec, ...]
    free: int

    @property
    def labels(self) -> tuple[str, ...]:
        """Every label, aligned with reps."""
        return tuple(map(self.label_at, range(len(self.reps))))

    def label_at(self, i: int) -> str:
        """Label of reps[i]: A0 for the free class, else Ak with k = i + 1
        before it and k = i past it."""
        return "A0" if i == self.free else f"A{i + 1 if i < self.free else i}"

    def rep_of(self, label: str) -> IntVec:
        """Representative of a label, ``label_at`` inverted: A0 is the
        free class, and Ak is index k - 1 for k <= free and k past it;
        InputError for any other string, such as "A01", "A-1" or "B1"."""
        try:
            k = int(label[1:])
        except ValueError:
            k = -1
        if not 0 <= k < len(self.reps) or label != f"A{k}":
            raise InputError(f"unknown class label {label!r}")
        return self.reps[self.free if k == 0 else k - 1 if k <= self.free else k]

    def label_of(self, rep: IntVec) -> str:
        """Label of a representative: a binary search of the sorted reps;
        ValueError when rep is none of them."""
        i = bisect_left(self.reps, rep)
        if i == len(self.reps) or self.reps[i] != rep:
            raise ValueError(f"{rep!r} is not a class representative")
        return self.label_at(i)


@per_cone
def enumerate_classes(spec: ConeSpec) -> ClassList:
    """All isomorphism classes: the sorted representatives of the class
    walk, one per leaf of a cut of the base parallelepipeds
    (``cells.class_walk`` has the proof that each class is reached once
    and checks it on the sorted list), and the free class's index, found
    by binary search; labels are read off the index (``ClassList``)."""
    reps = class_walk(spec)
    return ClassList(reps=reps, free=bisect_left(reps, (0,) * len(spec.normals)))
