"""Cells of a chamber and the incidence structure between them.

A chamber decomposes into locally closed cells indexed by the set Omega
of strip indices: pairings with index outside Omega are pinned at the
ceiling, pairings inside Omega stay in the open strip.  The codimension
of a cell is the rank of its pinned normals.  Cells of consecutive
codimension with nested Omega are facet pairs, and each pair carries an
incidence sign computed from exact orientation frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import ratgeom
from .cone import ConeSpec, double_description
from .errors import InputError, InternalInvariantError
from .ratgeom import IntVec, RatVec, dot, intvec, neg, sub


@dataclass(frozen=True)
class Cell:
    """One cell of a chamber: strip indices, codimension, interior point.

    The witness is the exact barycenter of the vertices of the cell's
    closure, a canonical point of its relative interior.
    """

    chamber: IntVec
    omega: tuple[int, ...]
    codim: int
    witness: RatVec = field(compare=False)


def ceiling_vector(spec: ConeSpec, c) -> IntVec:
    """The ceiling vector as a tuple of ints, one entry per normal."""
    cc = intvec(c)
    if len(cc) != len(spec.normals):
        raise InputError(
            f"ceiling vector has length {len(cc)}, expected {len(spec.normals)}")
    return cc


@lru_cache(maxsize=None)
def chamber_cells(spec: ConeSpec, c: IntVec) -> tuple[Cell, ...]:
    """Cells of the chamber of a ceiling vector tuple, sorted by (codim,
    omega), so a chamber's open cell comes first; none when c is not one."""
    # The closed box c_i - 1 <= <x, n_i> <= c_i is a polytope.  Its
    # vertices are x / s for the extreme rays (x, s) of the homogenised
    # cone s >= 0, <x, n_i> <= c_i s, <x, n_i> >= (c_i - 1) s.  Bound
    # 2i is the upper bound of normal i, bound 2i + 1 its lower bound;
    # row 0 of the pass is s >= 0, so row k + 1 is bound k.
    d, t = spec.rank, len(spec.normals)
    bounds = []
    for n, ci in zip(spec.normals, c):
        bounds += [neg(n) + (ci,), n + (1 - ci,)]
    vertices = []
    for ray, tight in double_description(tuple([(0,) * d + (1,)] + bounds), d + 1):
        vertices.append((tuple(Fraction(x, ray[d]) for x in ray[:d]),
                         frozenset(k - 1 for k in tight if k)))
    # The faces of the box are the intersections of vertex tight sets; a
    # face is the closure of a cell when only upper bounds are tight on it.
    faces = {tight for _, tight in vertices}
    todo = list(faces)
    while todo:
        face = todo.pop()
        for _, tight in vertices:
            meet = face & tight
            if meet not in faces:
                faces.add(meet)
                todo.append(meet)
    found = []
    for face in faces:
        if any(k % 2 for k in face):
            continue
        pinned = [spec.normals[k // 2] for k in face]
        points = [x for x, tight in vertices if face <= tight]
        found.append(Cell(
            chamber=c,
            omega=tuple(i for i in range(t) if 2 * i not in face),
            codim=ratgeom.rank(pinned),
            witness=tuple(sum(xs) / len(points) for xs in zip(*points))))
    return tuple(sorted(found, key=lambda cell: (cell.codim, cell.omega)))


def enumerate_cells(spec: ConeSpec, c) -> tuple[Cell, ...]:
    """All cells of a chamber, sorted by (codim, omega).

    One double-description pass finds the vertices of the chamber's
    closure and their tight bounds.  The cells partition the chamber, so
    none means c is not a chamber.
    """
    cc = ceiling_vector(spec, c)
    cells = chamber_cells(spec, cc)
    if not cells:
        raise InputError(f"not a chamber: {cc} is infeasible")
    return cells


def open_conic(cell: Cell) -> IntVec:
    """Ceiling vector of the open conic summand attached to a cell.

    Strip indices keep their ceiling; pinned indices are bumped by one,
    which excludes the pinned boundary itself.
    """
    return tuple(
        c if i in cell.omega else c + 1 for i, c in enumerate(cell.chamber))


def cell_census(spec: ConeSpec, c) -> dict[int, int]:
    """Number of cells per codimension."""
    census: dict[int, int] = {}
    for cell in enumerate_cells(spec, c):
        census[cell.codim] = census.get(cell.codim, 0) + 1
    return census


def has_zero_cell(spec: ConeSpec, c) -> bool:
    return any(cell.codim == spec.rank for cell in enumerate_cells(spec, c))


@lru_cache(maxsize=None)
def _frame(spec: ConeSpec, active: tuple[int, ...]) -> tuple[IntVec, ...]:
    # Canonical orientation frame of the direction space cut out by the
    # active normals: RREF kernel basis, primitive, pivot ordered.
    rows = [spec.normals[i] for i in active]
    return ratgeom.rref_kernel_basis(rows, spec.rank)


def _active(spec: ConeSpec, cell: Cell) -> tuple[int, ...]:
    return tuple(i for i in range(len(spec.normals)) if i not in cell.omega)


def orientation_frame(spec: ConeSpec, cell: Cell) -> tuple[IntVec, ...]:
    """Deterministic basis of the cell's direction space."""
    return _frame(spec, _active(spec, cell))


def is_facet_pair(spec: ConeSpec, inner: Cell, outer: Cell) -> bool:
    """Whether inner lies in the boundary of outer one codimension up."""
    if inner.chamber != outer.chamber:
        raise InputError("cells belong to different chambers")
    return (
        inner.codim == outer.codim + 1
        and set(inner.omega) < set(outer.omega))


def incidence_sign(spec: ConeSpec, inner: Cell, outer: Cell) -> int:
    """Sign of a facet pair: +1 or -1.

    The outward vector u points from the outer cell's witness to the
    inner cell's witness; it lies in the outer direction space.  The
    sign compares the orientation of [u, frame(inner)] with
    frame(outer), by exact determinants on the frame's free columns.
    """
    if not is_facet_pair(spec, inner, outer):
        raise InputError("not a facet pair")
    u = sub(inner.witness, outer.witness)
    for i in _active(spec, outer):
        if dot(u, spec.normals[i]) != 0:
            raise InternalInvariantError("outward vector leaves the outer cell")
    fo = orientation_frame(spec, outer)
    # An RREF kernel vector is zero after its own free column, so each
    # frame vector's last nonzero entry names that column.
    cols = [max(j for j, x in enumerate(v) if x != 0) for v in fo]
    fi = orientation_frame(spec, inner)
    mat_a = [[u[j] for j in cols]] + [[v[j] for j in cols] for v in fi]
    mat_b = [[v[j] for j in cols] for v in fo]
    det_a = ratgeom.det(mat_a)
    det_b = ratgeom.det(mat_b)
    if det_a == 0 or det_b == 0:
        raise InternalInvariantError("degenerate orientation frames")
    return 1 if (det_a > 0) == (det_b > 0) else -1

