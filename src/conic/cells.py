"""Cells of a chamber and the incidence structure between them.

A chamber decomposes into locally closed cells indexed by the set Omega
of strip indices: pairings with index outside Omega are pinned at the
ceiling, pairings inside Omega stay in the open strip.  The codimension
of a cell is the rank of its pinned normals, read off the orientation
frame of its direction space, which is kept once per cone and Omega.
Cells of consecutive codimension with nested Omega are facet pairs, and
each pair carries an incidence sign read from exact orientation frames
alone.  Interior points of cells are computed only on demand
(``cell_witnesses``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ratgeom
from .cone import ConeSpec, double_description, per_cone
from .errors import InputError, InternalInvariantError
from .ratgeom import IntVec, RatVec, dot, intvec, neg


@dataclass(frozen=True)
class Cell:
    """One cell of a chamber: strip indices and codimension."""

    chamber: IntVec
    omega: tuple[int, ...]
    codim: int


def ceiling_vector(spec: ConeSpec, c) -> IntVec:
    """The ceiling vector as a tuple of ints, one entry per normal."""
    cc = intvec(c)
    if len(cc) != len(spec.normals):
        raise InputError(
            f"ceiling vector has length {len(cc)}, expected {len(spec.normals)}")
    return cc


def box_vertices(spec: ConeSpec, c: IntVec) -> tuple[tuple[IntVec, frozenset[int]], ...]:
    """Vertices of the closed box c_i - 1 <= <x, n_i> <= c_i as (ray, tight).

    The vertex is ray[:d] / ray[d] for an extreme ray of the homogenised
    cone s >= 0, <x, n_i> <= c_i s, <x, n_i> >= (c_i - 1) s, and tight
    holds its tight bounds: 2i is the upper bound of normal i, 2i + 1 its
    lower bound.
    """
    d = spec.rank
    bounds = [(0,) * d + (1,)]
    for n, ci in zip(spec.normals, c):
        bounds += [neg(n) + (ci,), n + (1 - ci,)]
    # Row 0 of the pass is s >= 0, so row k + 1 is bound k.
    return tuple((ray, frozenset(k - 1 for k in tight if k))
                 for ray, tight in double_description(tuple(bounds), d + 1))


def vertex_barycenter(spec: ConeSpec, vertices) -> RatVec:
    """Exact barycenter of box vertices given as (ray, tight) pairs."""
    d = spec.rank
    return tuple(sum(Fraction(ray[j], ray[d]) for ray, _ in vertices)
                 / len(vertices) for j in range(d))


@per_cone
def chamber_cells(spec: ConeSpec, c: IntVec) -> tuple[Cell, ...]:
    """Cells of the chamber of a ceiling vector tuple, sorted by (codim,
    omega), so a chamber's open cell comes first; none when c is not one."""
    # The faces of the box are the intersections of vertex tight sets; a
    # face is the closure of a cell when only upper bounds are tight on it.
    tights = {tight for _, tight in box_vertices(spec, c)}
    faces = set(tights)
    todo = list(faces)
    while todo:
        face = todo.pop()
        for tight in tights:
            meet = face & tight
            if meet not in faces:
                faces.add(meet)
                todo.append(meet)
    found = []
    for face in faces:
        if any(k % 2 for k in face):
            continue
        omega = tuple(i for i in range(len(c)) if 2 * i not in face)
        found.append(Cell(chamber=c, omega=omega,
                          codim=spec.rank - len(_frame(spec, omega))))
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


def cell_witnesses(spec: ConeSpec, c) -> tuple[RatVec, ...]:
    """A point of each cell, aligned with ``enumerate_cells``: the cell
    with strip set omega has the closure tight on {2i : i not in omega},
    and its witness is the barycenter of the box vertices tight there."""
    cells = enumerate_cells(spec, c)
    vertices = box_vertices(spec, cells[0].chamber)
    t = len(spec.normals)
    return tuple(
        vertex_barycenter(spec, [v for v in vertices if face <= v[1]])
        for face in ({2 * i for i in range(t) if i not in cell.omega}
                     for cell in cells))


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


@per_cone
def _frame(spec: ConeSpec, omega: tuple[int, ...]) -> tuple[IntVec, ...]:
    # Canonical orientation frame of the direction space cut out by the
    # normals pinned outside omega: RREF kernel basis, primitive, pivot
    # ordered.  It depends on the cone and omega, not on the chamber.
    rows = [n for i, n in enumerate(spec.normals) if i not in omega]
    return ratgeom.rref_kernel_basis(rows, spec.rank)


def orientation_frame(spec: ConeSpec, cell: Cell) -> tuple[IntVec, ...]:
    """Deterministic basis of the cell's direction space."""
    return _frame(spec, cell.omega)


def is_facet_pair(spec: ConeSpec, inner: Cell, outer: Cell) -> bool:
    """Whether inner lies in the boundary of outer one codimension up."""
    if inner.chamber != outer.chamber:
        raise InputError("cells belong to different chambers")
    return (
        inner.codim == outer.codim + 1
        and set(inner.omega) < set(outer.omega))


def incidence_sign(spec: ConeSpec, inner: Cell, outer: Cell) -> int:
    """Sign of a facet pair: +1 or -1, from orientation frames alone.

    Take i strip on the outer cell and pinned on the inner one, and an
    outer frame vector v with <v, n_i> != 0: the sign is that of
    det([v; frame(inner)]) on the outer frame's free columns times that
    of <v, n_i>.  On the outer direction space both are linear with the
    kernel span(frame(inner)), so they are proportional; the outward
    vector u from a point of the outer cell to one of the inner cell has
    <u, n_i> > 0, so this is the sign of det([u; frame(inner)]) against
    frame(outer), a positive diagonal on its free columns.
    """
    if not is_facet_pair(spec, inner, outer):
        raise InputError("not a facet pair")
    n = spec.normals[next(i for i in outer.omega if i not in inner.omega)]
    fo = orientation_frame(spec, outer)
    v = next((v for v in fo if dot(v, n) != 0), None)
    # An RREF kernel vector is zero after its own free column, so each
    # frame vector's last nonzero entry names that column.
    cols = [max(j for j, x in enumerate(w) if x != 0) for w in fo]
    fi = orientation_frame(spec, inner)
    sign = 0 if v is None else (
        ratgeom.det([[w[j] for j in cols] for w in (v,) + fi]) * dot(v, n))
    if sign == 0:
        raise InternalInvariantError("degenerate orientation frames")
    return 1 if sign > 0 else -1
