"""Chambers of constancy and their isomorphism classes.

A point v determines the module of lattice points of the shifted cone
C + v, and that module depends on v only through the ceiling vector
c_i = ceil(<v, n_i>).  The set of points sharing a ceiling vector is the
chamber of c: the half-open box system c_i - 1 < <x, n_i> <= c_i.  Two
chambers give isomorphic modules exactly when their ceiling vectors
differ by an element of the pairing lattice, the image of the lattice
under m |-> (<m, n_i>)_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from . import ratgeom
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


def ceiling_vector(spec: ConeSpec, c) -> IntVec:
    """The ceiling vector as a tuple of ints, one entry per normal."""
    cc = intvec(c)
    if len(cc) != len(spec.normals):
        raise InputError(
            f"ceiling vector has length {len(cc)}, expected {len(spec.normals)}")
    return cc


def region_system(spec: ConeSpec, c, eq=(), open_=()) -> ratgeom.LinSystem:
    """Half-open chamber system with optional per-index overrides.

    Index in ``eq``: equality <x, n_i> = c_i.  Index in ``open_``: open
    strip c_i - 1 < <x, n_i> < c_i.  Otherwise the half-open default
    c_i - 1 < <x, n_i> <= c_i.
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


@lru_cache(maxsize=None)
def is_feasible(spec: ConeSpec, c: IntVec) -> bool:
    """Whether any point has this ceiling vector."""
    return ratgeom.feasible(region_system(spec, c))


def chamber_witness(spec: ConeSpec, c: IntVec) -> RatVec | None:
    """An exact rational point of the chamber, or None when infeasible."""
    return ratgeom.solve(region_system(spec, c))


def degree(c) -> int:
    """Grading of the chamber: minus the sum of the ceiling entries."""
    return -sum(intvec(c))


def require_chamber(spec: ConeSpec, c) -> IntVec:
    """The ceiling vector as a tuple; InputError unless it is a chamber."""
    cc = intvec(c)
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


def canonical_class(spec: ConeSpec, c) -> IntVec:
    """Canonical representative of the chamber's isomorphism class."""
    cc = require_chamber(spec, c)
    return ratgeom.reduce_mod_hnf(cc, translation_lattice(spec))


def iso_witness(spec: ConeSpec, c, cp) -> IntVec | None:
    """Lattice point m with c = cp + pairing(m), or None."""
    a = require_chamber(spec, c)
    b = require_chamber(spec, cp)
    return ratgeom.lattice_solve(spec.normals, sub(a, b))


def is_adjacent(spec: ConeSpec, c, cp) -> bool:
    """Whether two chambers share a wall.

    The ceiling vectors must differ by one in exactly one coordinate,
    and the shared wall (pairing i pinned at the smaller ceiling, all
    other pairings in open strips) must be nonempty.
    """
    a = require_chamber(spec, c)
    b = require_chamber(spec, cp)
    diffs = [i for i in range(len(a)) if a[i] != b[i]]
    if len(diffs) != 1 or abs(a[diffs[0]] - b[diffs[0]]) != 1:
        return False
    i = diffs[0]
    wall = tuple(min(x, y) for x, y in zip(a, b))
    sys = region_system(
        spec, wall, eq=(i,), open_=tuple(j for j in range(len(a)) if j != i))
    return ratgeom.feasible(sys)


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
    """All isomorphism classes, by breadth-first search over +-e_i steps.

    The search is complete.  A generic segment between interior points
    crosses one hyperplane <x, n_i> = k at a time, so the
    full-dimensional chambers are linked by +-e_i steps.  A
    lower-dimensional chamber c lies one step -e_i from a
    full-dimensional one: the normals tight at a point of c generate a
    pointed cone, so one of them, n_i, is extreme, and a small move that
    raises <x, n_i> and lowers the other tight pairings enters the
    interior of c + e_i.  Lattice translation commutes with steps, so
    walking over canonical representatives misses no class.
    """
    t = len(spec.normals)
    zero = tuple(0 for _ in range(t))
    start = canonical_class(spec, zero)
    seen = {start}
    queue = [start]
    while queue:
        cur = queue.pop(0)
        for i in range(t):
            for step in (1, -1):
                nxt = tuple(
                    x + step if j == i else x for j, x in enumerate(cur))
                if not is_feasible(spec, nxt):
                    continue
                rep = canonical_class(spec, nxt)
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
