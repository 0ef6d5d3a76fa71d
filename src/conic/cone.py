"""Cone presentations, validation, and facet restriction.

A cone is held by the primitive inward normals of its facets.  The
normals live in the dual lattice; the cone is the locus pairing
nonnegatively with each of them.  All arithmetic is exact.
"""

from __future__ import annotations

import functools
import hashlib
import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import mul

from . import ratgeom
from .errors import InputError, InternalInvariantError
from .ratgeom import IntVec, dot, intvec, primitive


@dataclass(frozen=True)
class ConeSpec:
    """A pointed, full-dimensional rational cone of the given rank.

    The normal order is part of the data: ceiling vectors, cells, and
    reports all read coordinates in this order.  ``generators`` carries
    the primitive extreme rays, in any order, when they were supplied or
    computed; other generators are refused.

    ``_store`` holds what ``per_cone`` functions computed for this cone.
    It is no part of the value: equality, hash and repr leave it out.
    """

    rank: int
    normals: tuple[IntVec, ...]
    generators: tuple[IntVec, ...] | None = None
    _store: dict = field(default_factory=dict, init=False, compare=False,
                         hash=False, repr=False)

    def __post_init__(self):
        d = self.rank
        if type(d) is not int:
            raise InputError(f"rank must be an int, got {d!r}")
        if d < 1:
            raise InputError(f"rank must be >= 1, got {d}")
        if not self.normals:
            raise InputError("at least one facet normal is required")
        for i, n in enumerate(self.normals):
            if len(n) != d:
                raise InputError(f"normal {i} has length {len(n)}, expected {d}")
            if not _ints(n):
                raise InputError(f"normal {i} has non-integer entries")
            if all(x == 0 for x in n):
                raise InputError(f"normal {i} is zero")
            if primitive(n) != n:
                raise InputError(f"normal {i} is not primitive: {n}")
        if ratgeom.rank(self.normals) < d:
            raise InputError("cone is not pointed: normals do not span the dual space")
        kept, _, rays = _minimal_generators(self.normals)
        if ratgeom.rank(rays) < d:
            raise InputError("cone is not full-dimensional")
        for i, n in enumerate(self.normals):
            # a repeated normal is redundant at each of its occurrences
            if i not in kept or self.normals.count(n) > 1:
                raise InputError(f"normal {i} is redundant: {n}")
        if self.generators is not None:
            for i, g in enumerate(self.generators):
                if len(g) != d:
                    raise InputError("generator length does not match rank")
                if not _ints(g):
                    raise InputError(f"generator {i} has non-integer entries")
            if sorted(map(tuple, self.generators)) != list(rays):
                raise InputError("generators are not the cone's extreme rays")

    @property
    def simplicial(self) -> bool:
        """Whether there are exactly rank normals; they span, so they are
        then linearly independent."""
        return len(self.normals) == self.rank


_MISSING = object()


def _ints(v) -> bool:
    # bool is an int subclass, but True would print as true in reports
    return all(type(x) is int for x in v)


def per_cone(func):
    """Memoise ``func(spec, *args)`` in ``spec._store``, one table per
    function keyed by args.

    The store is the only cache of per-cone state: an entry lives exactly
    as long as its cone, so memory is bounded by the cones a caller keeps.
    Equal cones built separately share nothing.  ``memo.keep(spec, args,
    value)`` stores a value computed elsewhere, unless one is kept.
    """
    @functools.wraps(func)
    def memo(spec: ConeSpec, *args):
        table = spec._store.get(memo)
        if table is None:
            table = spec._store[memo] = {}
        value = table.get(args, _MISSING)
        if value is _MISSING:
            value = table[args] = func(spec, *args)
        return value

    def keep(spec: ConeSpec, args: tuple, value):
        return spec._store.setdefault(memo, {}).setdefault(args, value)
    memo.keep = keep
    return memo


@dataclass(frozen=True)
class ConeChecks:
    pointed: bool
    full_dimensional: bool
    simplicial: bool


@dataclass(frozen=True)
class FacetRestriction:
    """Restriction data for one facet hyperplane H.

    ``basis`` is a lattice basis of H; ``functionals`` lists, for every
    other normal index j, the raw functional induced on H in basis
    coordinates (unscaled, possibly redundant).  ``cone`` is the cleaned
    lower-rank cone: functionals primitivized and redundant ones
    dropped.  ``kept`` aligns with ``cone.normals`` and records, per
    kept normal, the source index j and the positive integer scale that
    was divided out.
    """

    facet_index: int
    basis: tuple[IntVec, ...]
    functionals: tuple[tuple[int, IntVec], ...]
    cone: ConeSpec
    kept: tuple[tuple[int, int], ...]


def _minimal_generators(rays: Sequence[IntVec]) -> tuple[tuple[int, ...], tuple[IntVec, ...], tuple[IntVec, ...]]:
    """Indices and values of the extremal rays among spanning primitive
    rays, and the dual extreme rays.

    The rays generate a pointed cone exactly when the dual extreme rays
    span too.  A ray is then kept at its first occurrence when the facets
    through it, the dual extreme rays vanishing on it, have rank d - 1;
    survivors keep their input order.
    """
    d = len(rays[0])
    facets = double_description(tuple(rays), d)
    idx = tuple(
        i for i, r in enumerate(rays)
        if rays.index(r) == i
        and ratgeom.rank([f for f, tight in facets if tight >> i & 1]) == d - 1)
    return idx, tuple(rays[i] for i in idx), tuple(f for f, _ in facets)


def double_description(rows: tuple[IntVec, ...],
                       dim: int) -> tuple[tuple[IntVec, int], ...]:
    """Extreme rays of {x : <x, r> >= 0 for all r in rows}, each with the
    int bitmask of its tight rows, bit k set iff <ray, rows[k]> = 0;
    sorted by ray.

    rows must have rank == dim so the solution cone is pointed.  The
    seed step takes the greedy base of the rows and its inverse
    (``ratgeom.base_inverse``); seed ray j pairs positively with base
    row j and to zero with the other base rows, column j of that inverse
    made primitive.  The incremental loop then adds the other rows one
    at a time (``_dd_add_row``); each ray carries the mask of its tight
    rows over the rows added so far.  A new ray comes from an adjacent
    pair p, q on either side of the new row i and is tight on their
    common rows and on i.

    Adjacency is combinatorial (Fukuda & Prodon, 1996): p and q are
    adjacent iff no other ray r has tight[p] & tight[q] <= tight[r].
    The smallest face holding p and q is cut out by their common tight
    rows, and its extreme rays are the rays whose tight sets contain
    that set.  It is 2-dimensional, that is p and q are adjacent, iff p
    and q are its only extreme rays.  A 2-face is cut out by rows of
    rank dim - 2, so a pair with fewer than dim - 2 common tight rows is
    skipped before that scan.
    """
    base, _, cols = ratgeom.base_inverse(rows, dim)
    full = sum(1 << i for i in base)
    rays = [primitive(col) for col in cols]
    masks = [full ^ 1 << i for i in base]
    for i, row in enumerate(rows):
        if not full >> i & 1:
            rays, masks = _dd_add_row(
                rays, masks, [sum(map(mul, r, row)) for r in rays], 1 << i, dim)
    return tuple(sorted(zip(rays, masks)))


def _dd_add_row(rays: list, masks: list, vals: list, bit: int,
                dim: int) -> tuple[list, list]:
    """One step of the incremental loop: the rays and tight masks after
    adding the row whose pairing with each ray is in vals, tight bit
    ``bit``.  Rays with vals >= 0 stay, and each adjacent pair across the
    row gives a new ray, tight on their common rows and on the new one.
    The class walk and one chamber's box, ``cells.box_vertices``, cut
    with it too (``cells._cut``)."""
    pos = [k for k, v in enumerate(vals) if v > 0]
    neg = [k for k, v in enumerate(vals) if v < 0]
    kept_rays, kept_masks = [], []
    for r, m, v in zip(rays, masks, vals):
        if v >= 0:
            kept_rays.append(r)
            kept_masks.append(m | bit if v == 0 else m)
    for p in pos:
        mp, rp, vp = masks[p], rays[p], vals[p]
        for q in neg:
            common = mp & masks[q]
            if common.bit_count() < dim - 2:
                continue
            seen = 0
            for m in masks:
                if m & common == common:
                    seen += 1
                    if seen > 2:
                        break
            else:
                vq = vals[q]
                kept_rays.append(primitive(
                    [vp * qc - vq * pc for pc, qc in zip(rp, rays[q])]))
                kept_masks.append(common | bit)
    return kept_rays, kept_masks


def dual_extreme_rays(rows: tuple[IntVec, ...], dim: int) -> tuple[IntVec, ...]:
    """The rays of ``double_description``, lex sorted."""
    return tuple(ray for ray, _ in double_description(rows, dim))


def from_normals(rank: int, normals) -> ConeSpec:
    """Build a cone from facet normals given exactly; no cleanup is done.

    Non-primitive or redundant normals are rejected rather than fixed.
    """
    rows = tuple(intvec(n) for n in normals)
    return ConeSpec(rank=rank, normals=rows)


def _primitive_generators(rank: int, rays, noun: str) -> list[IntVec]:
    """The rays as primitive integer vectors; each must be nonzero of length rank."""
    rows = []
    for i, r in enumerate(rays):
        v = intvec(r)
        if len(v) != rank:
            raise InputError(f"{noun} {i} has length {len(v)}, expected {rank}")
        if all(x == 0 for x in v):
            raise InputError(f"{noun} {i} is zero")
        rows.append(primitive(v))
    return rows


def from_dual_rays(rank: int, rays) -> ConeSpec:
    """Build a cone from generators of the dual cone.

    Rays are primitivized and redundant ones dropped; the survivors, in
    input order, become the facet normals.
    """
    rows = _primitive_generators(rank, rays, "dual ray")
    if ratgeom.rank(rows) < rank:
        raise InputError("cone is not pointed: dual rays do not span")
    _, normals, rays = _minimal_generators(rows)
    if ratgeom.rank(rays) < rank:
        raise InputError("cone is not full-dimensional: dual rays contain a line")
    return ConeSpec(rank=rank, normals=normals)


def from_primal_rays(rank: int, rays) -> ConeSpec:
    """Build a cone from its own generating rays via double description."""
    rows = _primitive_generators(rank, rays, "ray")
    if ratgeom.rank(rows) < rank:
        raise InputError("cone is not full-dimensional")
    _, gens, normals = _minimal_generators(rows)
    if ratgeom.rank(normals) < rank:
        raise InputError("cone is not pointed")
    return ConeSpec(rank=rank, normals=normals, generators=gens)


def validate(spec: ConeSpec) -> ConeChecks:
    """Pointedness and full-dimensionality, which every constructed
    ConeSpec has, plus ``spec.simplicial``."""
    return ConeChecks(
        pointed=True, full_dimensional=True, simplicial=spec.simplicial)


def primal_generators(spec: ConeSpec) -> tuple[IntVec, ...]:
    """Primitive extreme rays of the cone, lex sorted when computed."""
    if spec.generators is not None:
        return spec.generators
    return dual_extreme_rays(spec.normals, spec.rank)


def restrict_to_facet(spec: ConeSpec, index: int) -> FacetRestriction:
    """Restrict the cone to the hyperplane of one facet normal.

    Every other normal induces a functional on the hyperplane lattice.
    The raw list is kept verbatim in ``functionals``; the cleaned cone
    divides out scales and drops redundant functionals.  The raw and
    cleaned decompositions of the hyperplane differ in general: dropped
    or rescaled functionals make the cleaned chamber decomposition
    coarser, so the raw list is what finer correspondences must use.
    """
    d = spec.rank
    if d < 2:
        raise InputError("facet restriction needs rank >= 2")
    if not 0 <= index < len(spec.normals):
        raise InputError(f"facet index {index} out of range")
    basis = ratgeom.functional_kernel_basis(spec.normals[index])
    raw = []
    for j, n in enumerate(spec.normals):
        if j == index:
            continue
        g = tuple(dot(b, n) for b in basis)
        if all(x == 0 for x in g):
            raise InternalInvariantError(
                f"normal {j} vanishes on the facet of normal {index}"
            )
        raw.append((j, g))
    prims = [primitive(g) for _, g in raw]
    if ratgeom.rank(prims) < d - 1:
        raise InternalInvariantError("restricted functionals do not span")
    pos, normals, _ = _minimal_generators(prims)
    kept = []
    for p, nrm in zip(pos, normals):
        j, g = raw[p]
        scale = next(x // y for x, y in zip(g, nrm) if y != 0)
        kept.append((j, scale))
    cone = ConeSpec(rank=d - 1, normals=normals)
    return FacetRestriction(
        facet_index=index,
        basis=basis,
        functionals=tuple(raw),
        cone=cone,
        kept=tuple(kept),
    )


def content_hash(spec: ConeSpec) -> str:
    """Stable identity for reports: sha256 over rank and normals."""
    blob = json.dumps([spec.rank, [list(n) for n in spec.normals]])
    return hashlib.sha256(blob.encode("ascii")).hexdigest()
