"""Cells of a chamber and the incidence structure between them.

A chamber decomposes into locally closed cells indexed by the set Omega
of strip indices: pairings with index outside Omega are pinned at the
ceiling, pairings inside Omega stay in the open strip.  The codimension
of a cell is the rank of its pinned normals, read off the orientation
frame of its direction space, which is kept once per cone and Omega.
Cells of consecutive codimension with nested Omega are facet pairs, and
each pair carries an incidence sign, a parity read off the outer cell's
exact orientation frame alone (``incidence_sign`` has the proof that it
is the frames' determinant sign).  The sign depends on the two Omegas
and not on the chamber, so each cone keeps one sign table keyed on the
pair of Omegas, filled on first use.  Interior points of cells are
computed only on demand (``cell_witnesses``).

Lattice translation keeps cells, so they are kept once per class:
``chamber_gate`` checks every ceiling vector a user gives, reduces it by
the pivots of the pairing lattice's HNF (``_lattice_pivots``) and reads
the cell pattern of the representative, the (omega, codim) of its cells.
A ceiling vector the engine derives (a root residue, a map piece, an
open conic) takes the same reduction and lookup through ``class_of``,
where a miss is a bug, not bad input.  Both pairing-lattice tables
live here, and so does the class walk (``class_walk``): one base cube
per level in that HNF's box, cut slab by slab (``_cut``), and the same
cut held to one chamber's levels gives its box (``box_vertices``).  The
cells read only the tight masks of the box vertices: the face closure
(``_pattern``) runs once per mask set of a walk, which fills the pattern
table (``class_pattern``) for every class, and once per class asked for
before it, on its own box.  Each cone keeps one object per distinct
pattern (``_interned``), which every class with that pattern holds.
``Cell`` objects are made only on request.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import mul

from . import ratgeom
from .cone import ConeSpec, _dd_add_row, per_cone
from .errors import InputError, InternalInvariantError
from .ratgeom import IntVec, RatVec, dot, intvec, primitive


@dataclass(frozen=True, slots=True)
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


Pattern = tuple[tuple[tuple[int, ...], int], ...]


def chamber_gate(spec: ConeSpec, c) -> tuple[IntVec, IntVec, Pattern]:
    """(c as ints, its class representative, the representative's cell
    pattern) for a ceiling vector a user gives; the pattern is empty
    when c is not a chamber, and then nothing is kept (``class_pattern``
    raises, and ``per_cone`` keeps no call that raises).  Vectors the
    engine derives go through ``class_of``."""
    cc = ceiling_vector(spec, c)
    rep = ratgeom.reduce_by_pivots(cc, _lattice_pivots(spec))
    try:
        return cc, rep, class_pattern(spec, rep)
    except _NoCells:
        return cc, rep, ()


def require_gate(spec: ConeSpec, c) -> tuple[IntVec, IntVec, Pattern]:
    """``chamber_gate``; InputError unless c is a chamber."""
    gate = chamber_gate(spec, c)
    if not gate[2]:
        raise InputError(f"not a chamber: {gate[0]} is infeasible")
    return gate


def class_of(spec: ConeSpec, c: IntVec) -> IntVec:
    """The class representative of a ceiling vector the engine derived,
    a tuple of t ints: c reduced by the pairing lattice's HNF pivots,
    whose class pattern is then looked up (``class_pattern``).  Every
    derived vector is a chamber, so InternalInvariantError naming c when
    its class has no cell."""
    rep = ratgeom.reduce_by_pivots(c, _lattice_pivots(spec))
    try:
        class_pattern(spec, rep)
    except _NoCells:
        raise InternalInvariantError(
            f"derived ceiling vector {c} is not a chamber") from None
    return rep


def box_vertices(spec: ConeSpec, c: IntVec) -> tuple[tuple[IntVec, int], ...]:
    """Vertices of the closed box c_i - 1 <= <x, n_i> <= c_i as (ray, tight),
    sorted by ray: the vertex is ray[:d] / ray[d], ray primitive, and tight
    is the int bitmask of its tight bounds, bit 2i the upper bound of
    normal i and bit 2i + 1 its lower bound.  The box is the one leaf of
    the walk's cut (``_cut``) from the root cube at the base levels c_B
    (``_cube``), held to c's own level of each non-base normal."""
    base, *_, cuts = _base_cube(spec)
    (_, rays, masks), = _cut(*_cube(spec, [c[i] for i in base]), cuts, list(c),
                             spec.rank, False)
    return tuple(sorted(zip(rays, masks)))


@per_cone
def _base_cube(spec: ConeSpec):
    # (B, D, the columns of A, corners, masks, cuts) for the greedy base B
    # of the normals and N_B A = D I (``ratgeom.base_inverse``): for each
    # eps in {0, 1}^d the corner A (eps - 1) and the tight mask of the
    # cube vertex eps, bit 2i (upper bound of i) where eps is 1, bit
    # 2i + 1 where 0; cuts holds (i, n_i) for each normal outside B, in
    # the index order in which ``_cut`` takes them.
    d = spec.rank
    base, det_b, cols = ratgeom.base_inverse(spec.normals, d)
    cube = list(product((0, 1), repeat=d))
    corners = [[-sum(col[j] for e, col in zip(eps, cols) if not e)
                for j in range(d)] for eps in cube]
    masks = [sum(1 << 2 * i + 1 - e for i, e in zip(base, eps)) for eps in cube]
    cuts = tuple((i, n) for i, n in enumerate(spec.normals) if i not in base)
    return base, det_b, cols, corners, masks, cuts


def _cube(spec: ConeSpec, levels) -> tuple[list, list]:
    """The rays and tight masks of the root cube at base levels c_B,
    c_B_j - 1 <= <x, n_B_j> <= c_B_j: its vertices are (A(c_B + eps - 1),
    D) made primitive (``_base_cube``)."""
    _, det_b, cols, corners, masks, _ = _base_cube(spec)
    ac = [sum(x * col[j] for x, col in zip(levels, cols)) for j in range(spec.rank)]
    return [primitive([a + b for a, b in zip(ac, corner)] + [det_b])
            for corner in corners], masks


def leaves(spec: ConeSpec):
    """(ceiling vector, frozenset of its box vertices' tight masks) for
    each class's canonical representative, whose base levels lie in the
    HNF box 0 <= c_B_j < pivot_j (``class_walk``).  A root is ``_cube``
    at c_B and the rest is ``_cut``.  When every normal is in the base,
    each root cube is a leaf with the one root mask set, and its
    vertices are not made.
    """
    d, t = spec.rank, len(spec.normals)
    base, _, _, _, masks, cuts = _base_cube(spec)
    c = [0] * t
    root = frozenset(masks)
    for levels in product(*(range(piv) for _, piv, _ in _lattice_pivots(spec))):
        for i, x in zip(base, levels):
            c[i] = x
        if not cuts:
            yield tuple(c), root
            continue
        for rep, _, leaf in _cut(*_cube(spec, levels), cuts, c, d, True):
            yield rep, frozenset(leaf)


def _cut(rays, masks, cuts, c, d, walk):
    # (c, rays, masks) for each leaf below a closed piece; c holds the
    # levels chosen on its path.  A child is the slab v - 1 <= <x, n_i>
    # <= v, two ``cone._dd_add_row`` steps, the upper bound first, for
    # each level v the piece meets (``class_walk``), or c's own alone.
    if not cuts:
        yield tuple(c), rays, masks
        return
    (i, n), rest = cuts[0], cuts[1:]
    vals = [(sum(map(mul, ray, n)), ray[d]) for ray in rays]
    levels = range(min(p // w for p, w in vals) + 1,
                   max(-(-p // w) for p, w in vals) + 1) if walk else (c[i],)
    for v in levels:
        c[i] = v
        cut = _dd_add_row(
            rays, masks, [v * w - p for p, w in vals], 1 << 2 * i, d + 1)
        cut = _dd_add_row(
            *cut, [sum(map(mul, ray, n)) + (1 - v) * ray[d] for ray in cut[0]],
            2 << 2 * i, d + 1)
        yield from _cut(*cut, rest, c, d, walk)


def class_walk(spec: ConeSpec) -> tuple[IntVec, ...]:
    """The lex sorted canonical representatives of all isomorphism
    classes, one per leaf of a cut of the base parallelepipeds
    (``leaves``); the cell pattern of each goes into ``class_pattern``.

    Let B be the greedy base of the normals (``_base_cube``) and
    D = |det N_B|.  The base normals alone cut R^d / Z^d into exactly D
    open parallelepipeds: in the coordinates y = N_B x they are the open
    cubes c_B - 1 < y < c_B, one per coset of N_B Z^d.  The HNF of the
    pairing lattice (``_lattice_pivots``) has its pivots at B, the
    first independent normals, and on B it is the HNF of N_B Z^d, so its
    box 0 <= c_B_j < pivot_j holds one point of each coset.  A chamber's
    open box is nonempty (it holds x - eps u for x in it and u inside
    the cone) and lies in the open cube at c_B; a nonzero lattice
    translate moves c_B by a nonzero element of N_B Z^d, so exactly one
    chamber of each class has c_B in the box, its canonical
    representative, and two chambers in one cube are never in one class.
    So the classes are the disjoint union, over the D cubes, of the
    regions that the other normals' integer levels cut inside each cube.

    The walk goes depth first over the non-base normals (``_cut``).  A
    node is a closed piece with its double-description state, vertices
    and tight masks.  The values of <x, n_j> at its vertices give
    [lo, hi], and the piece's interior, being convex and open, meets
    exactly the open slabs c_j - 1 < <x, n_j> < c_j for
    c_j = floor(lo) + 1, ..., ceil(hi): those are its children, each two
    row additions away, so no emptiness test is needed.  Every leaf is one
    representative's closed box, reached once; a repeated class is an
    internal error.  The leaf's tight masks give the cell pattern of its
    class: the face closure (``_pattern``) runs once per mask set, which
    only the walk keeps.
    """
    seen = set()
    patterns = {}
    for rep, masks in leaves(spec):
        if rep in seen:
            raise InternalInvariantError(f"class {rep} is reached twice")
        seen.add(rep)
        pattern = patterns.get(masks)
        if pattern is None:
            pattern = patterns[masks] = _pattern(spec, masks)
        class_pattern.keep(spec, (rep,), pattern)
    if (0,) * len(spec.normals) not in seen:
        raise InternalInvariantError("the free class is not reached")
    return tuple(sorted(seen))


def _preimage(spec: ConeSpec, h: IntVec) -> IntVec | None:
    """The lattice point m with ``nhat(spec, m) == h``, or None, read off
    the inverse kept with the base cube (``ratgeom.lattice_witness``)."""
    return ratgeom.lattice_witness(spec.normals, _base_cube(spec)[:3], h)


@per_cone
def _lattice_pivots(spec: ConeSpec):
    # ``ratgeom.hnf_pivots`` of the HNF basis of the pairing lattice, the
    # image of m |-> (<m, n_i>)_i: one (column, pivot, row) per HNF row.
    cols = [tuple(n[j] for n in spec.normals) for j in range(spec.rank)]
    return ratgeom.hnf_pivots(ratgeom.hermite_normal_form(cols))


def vertex_barycenter(spec: ConeSpec, vertices) -> RatVec:
    """Exact barycenter of box vertices given as (ray, tight) pairs."""
    d = spec.rank
    return tuple(sum(Fraction(ray[j], ray[d]) for ray, _ in vertices)
                 / len(vertices) for j in range(d))


class _NoCells(Exception):
    """Raised by ``class_pattern`` for a ceiling vector with no cell."""


@per_cone
def class_pattern(spec: ConeSpec, c: IntVec) -> Pattern:
    """The cell pattern of the chamber of a class representative
    (``chamber_gate``, ``class_of``): the (omega, codim) of its cells
    sorted by (codim, omega), so the open cell comes first.  _NoCells if
    c is not a chamber, so that the table holds class representatives
    only.  The class walk (``class_walk``) fills the table for every
    class; a representative asked for before it reads its own box."""
    pattern = _pattern(spec, frozenset(tight for _, tight in box_vertices(spec, c)))
    if not pattern:
        raise _NoCells(c)
    return pattern


def _pattern(spec: ConeSpec, masks: frozenset) -> Pattern:
    # The face closure of a set of box vertex tight masks: the cone's
    # object for the cell pattern (``_interned``), (omega, codim) sorted
    # by (codim, omega), empty when no face is a cell.  The faces of the
    # box are the meets of vertex tight masks, and a cell's closure is a
    # face on which only upper bounds (even bits) are tight.  Such a face
    # is the meet of its own vertices' masks, so also of their even
    # parts: the candidates are the meets of even parts.  The even parts
    # of the vertices tight on a candidate meet in it, so it is a face
    # iff their odd parts meet in 0.
    upper = sum(1 << 2 * i for i in range(len(spec.normals)))
    faces = set()
    for even in {m & upper for m in masks}:
        faces |= {even & face for face in faces}
        faces.add(even)
    found = []
    for face in faces:
        odd = ~upper
        for m in masks:
            if m & face == face:
                odd &= m
                if not odd:
                    found.append(_face_cell(spec, face))
                    break
    found.sort()
    # A chamber's complex has exactly one degree-0 summand, the open
    # cell, whose open conic is the chamber itself: it pins no index.
    if found and [codim for codim, _ in found].count(0) != 1:
        raise InternalInvariantError("chamber does not have a unique interior cell")
    if found and len(found[0][1]) != len(spec.normals):
        raise InternalInvariantError("interior open conic differs from the chamber")
    # The complex is exact (``complexes``), so its Euler characteristic,
    # chi(P) - chi(L) of the box and its lower facets, is 0.
    if found and sum((-1) ** codim for codim, _ in found):
        raise InternalInvariantError("cell census has nonzero Euler characteristic")
    return _interned(spec, tuple((omega, codim) for codim, omega in found))


@per_cone
def _interned(spec: ConeSpec, pattern: Pattern) -> Pattern:
    # The cone's one object equal to pattern: at most one entry per
    # distinct cell pattern.
    return pattern


@per_cone
def _face_cell(spec: ConeSpec, face: int) -> tuple[int, tuple[int, ...]]:
    # (codim, omega) of the cell whose closure is tight on face
    omega = tuple(i for i in range(len(spec.normals)) if not face >> 2 * i & 1)
    return spec.rank - len(_frame(spec, omega)), omega


def enumerate_cells(spec: ConeSpec, c) -> tuple[Cell, ...]:
    """All cells of a chamber, sorted by (codim, omega): those of its class
    pattern, at c."""
    cc, _, pattern = require_gate(spec, c)
    return tuple(Cell(cc, omega, codim) for omega, codim in pattern)


def cell_witnesses(spec: ConeSpec, c) -> tuple[RatVec, ...]:
    """A point of each cell, aligned with ``enumerate_cells``: the cell
    with strip set omega has the closure tight on {2i : i not in omega},
    and its witness is the barycenter of the box vertices tight there."""
    cc, _, pattern = require_gate(spec, c)
    vertices = box_vertices(spec, cc)
    t = len(spec.normals)
    return tuple(
        vertex_barycenter(spec, [v for v in vertices if v[1] & face == face])
        for face in (sum(1 << 2 * i for i in range(t) if i not in omega)
                     for omega, _ in pattern))


def open_conic(cell: Cell) -> IntVec:
    """Ceiling vector of the open conic summand attached to a cell.

    Strip indices keep their ceiling; pinned indices are bumped by one,
    which excludes the pinned boundary itself.
    """
    return tuple(
        c if i in cell.omega else c + 1 for i, c in enumerate(cell.chamber))


def pattern_census(pattern: Pattern) -> dict[int, int]:
    """Number of cells per codimension of a cell pattern."""
    census: dict[int, int] = {}
    for _, codim in pattern:
        census[codim] = census.get(codim, 0) + 1
    return census


def cell_census(spec: ConeSpec, c) -> dict[int, int]:
    """Number of cells per codimension, read off the class pattern."""
    return pattern_census(require_gate(spec, c)[2])


def has_zero_cell(spec: ConeSpec, c) -> bool:
    """Whether the chamber has a cell of codimension rank: the pattern's
    last codim, since codims are at most the rank."""
    return require_gate(spec, c)[2][-1][1] == spec.rank


@per_cone
def _frame(spec: ConeSpec, omega: tuple[int, ...]) -> tuple[IntVec, ...]:
    # Canonical orientation frame of the direction space cut out by the
    # normals pinned outside omega: RREF kernel basis, primitive, pivot
    # ordered.  It depends on the cone and omega, not on the chamber.
    rows = [n for i, n in enumerate(spec.normals) if i not in omega]
    return ratgeom.rref_kernel_basis(rows, spec.rank)


def is_facet_pair(spec: ConeSpec, inner: Cell, outer: Cell) -> bool:
    """Whether inner lies in the boundary of outer one codimension up."""
    if inner.chamber != outer.chamber:
        raise InputError("cells belong to different chambers")
    return (
        inner.codim == outer.codim + 1
        and set(inner.omega) < set(outer.omega))


def incidence_sign(spec: ConeSpec, inner: Cell, outer: Cell) -> int:
    """Sign of a facet pair: +1 or -1, a parity read off the outer
    orientation frame.

    Take i strip on the outer cell and pinned on the inner one, and an
    outer frame vector v with <v, n_i> != 0: the sign is that of
    det([v; frame(inner)]) on the outer frame's free columns times that
    of <v, n_i>.  On the outer direction space both are linear with the
    kernel span(frame(inner)), so they are proportional; the outward
    vector u from a point of the outer cell to one of the inner cell has
    <u, n_i> > 0, so this is the sign of det([u; frame(inner)]) against
    frame(outer), a positive diagonal on its free columns.

    With v the first such vector, at position p of the outer frame, the
    sign is (-1)^p times the sign of <v, n_i>, and no determinant is
    needed:

    - RREF pivots depend only on the row space.  The inner cell's pinned
      rows span the outer cell's pinned rows plus n_i: the codim goes up
      by one, and n_i is not in the outer row space, for then it would
      vanish on every outer frame vector and no v would exist ("degenerate
      orientation frames").
    - Reduce n_i against the outer RREF rows to n'.  At each free column
      f, n'[f] is <v_f, n_i> times a positive factor, v_f the frame
      vector of f, because each frame vector is positive at its own free
      column.  So the inner pivots are the outer pivots plus the first
      free column whose frame vector pairs nonzero with n_i: v's.
    - So the inner free columns are the outer ones minus v's, and on
      them frame(inner) is a positive diagonal.
    - Expand det([v; frame(inner)]) on the outer free columns along v's
      row.  That row has one nonzero entry, positive, at position p, so
      the determinant is (-1)^p times a positive number.

    The sign reads only the two omegas and the cone, never the chamber,
    so it is kept in one table per cone keyed on (inner.omega,
    outer.omega) and computed once per key.
    """
    if not is_facet_pair(spec, inner, outer):
        raise InputError("not a facet pair")
    return _sign(spec, inner.omega, outer.omega)


@per_cone
def _sign(spec: ConeSpec, inner: tuple[int, ...], outer: tuple[int, ...]) -> int:
    # (-1)^p sign(<v, n>) for the first outer frame vector v, at position
    # p, that pairs nonzero with the normal n the inner cell pins
    n = spec.normals[next(i for i in outer if i not in inner)]
    for p, v in enumerate(_frame(spec, outer)):
        s = dot(v, n)
        if s:
            return 1 if (s > 0) == (p % 2 == 0) else -1
    raise InternalInvariantError("degenerate orientation frames")
