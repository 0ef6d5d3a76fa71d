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
from functools import lru_cache

from . import ratgeom
from .chambers import region_system, require_chamber
from .cone import ConeSpec
from .errors import InputError, InternalInvariantError
from .ratgeom import EQ, LE, IntVec, RatVec, dot, intvec, sub

DEFAULT_MAX_NORMALS = 12


@dataclass(frozen=True)
class Cell:
    """One cell of a chamber: strip indices, codimension, interior point."""

    chamber: IntVec
    omega: tuple[int, ...]
    codim: int
    witness: RatVec = field(compare=False)


def _weak_system(spec: ConeSpec, c: IntVec, omega) -> ratgeom.LinSystem:
    # Closure of the cell: equalities off omega, closed strips on omega.
    rows = []
    for i, n in enumerate(spec.normals):
        if i in omega:
            rows.append((n, LE, c[i]))
            rows.append((tuple(-x for x in n), LE, 1 - c[i]))
        else:
            rows.append((n, EQ, c[i]))
    return ratgeom.system(spec.rank, rows)


def cell_system(spec: ConeSpec, c, omega) -> ratgeom.LinSystem:
    """The locally closed system of one cell."""
    cc = intvec(c)
    om = tuple(sorted(omega))
    return region_system(spec, cc, eq=tuple(i for i in range(len(cc)) if i not in om),
                         open_=om)


@lru_cache(maxsize=None)
def _enumerate(spec: ConeSpec, c: IntVec) -> tuple[Cell, ...]:
    t = len(spec.normals)
    found = []

    def visit(removed: tuple[int, ...]):
        omega = tuple(i for i in range(t) if i not in removed)
        if not ratgeom.feasible(_weak_system(spec, c, set(omega))):
            # The closure is empty, so every cell with a smaller omega
            # is empty as well: prune the whole subtree.
            return
        witness = ratgeom.solve(cell_system(spec, c, omega))
        if witness is not None:
            active = [spec.normals[i] for i in removed]
            found.append(Cell(
                chamber=c, omega=omega,
                codim=ratgeom.rank(active) if active else 0,
                witness=witness))
        start = removed[-1] + 1 if removed else 0
        for j in range(start, t):
            visit(removed + (j,))

    visit(())
    return tuple(sorted(found, key=lambda cell: (cell.codim, cell.omega)))


def enumerate_cells(spec: ConeSpec, c, max_normals: int | None = None) -> tuple[Cell, ...]:
    """All cells of a feasible chamber, sorted by (codim, omega).

    The subset walk is exponential in the number of normals, so it is
    capped at DEFAULT_MAX_NORMALS unless an explicit override is given.
    """
    cap = DEFAULT_MAX_NORMALS if max_normals is None else max_normals
    if len(spec.normals) > cap:
        raise InputError(
            f"{len(spec.normals)} normals exceeds the cell enumeration cap "
            f"{cap}; pass max_normals to override")
    return _enumerate(spec, require_chamber(spec, c))


def open_conic(cell: Cell) -> IntVec:
    """Ceiling vector of the open conic summand attached to a cell.

    Strip indices keep their ceiling; pinned indices are bumped by one,
    which excludes the pinned boundary itself.
    """
    return tuple(
        c if i in cell.omega else c + 1 for i, c in enumerate(cell.chamber))


def cell_census(spec: ConeSpec, c, max_normals: int | None = None) -> dict[int, int]:
    """Number of cells per codimension."""
    census: dict[int, int] = {}
    for cell in enumerate_cells(spec, c, max_normals=max_normals):
        census[cell.codim] = census.get(cell.codim, 0) + 1
    return census


def has_zero_cell(spec: ConeSpec, c, max_normals: int | None = None) -> bool:
    return any(
        cell.codim == spec.rank
        for cell in enumerate_cells(spec, c, max_normals=max_normals))


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

