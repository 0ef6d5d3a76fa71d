"""Cone presentations, validation, and facet restriction.

A cone is held by the primitive inward normals of its facets.  The
normals live in the dual lattice; the cone is the locus pairing
nonnegatively with each of them.  All arithmetic is exact.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Sequence
from dataclasses import dataclass

from . import ratgeom
from .errors import InputError, InternalInvariantError
from .ratgeom import IntVec, dot, intvec, neg, primitive


@dataclass(frozen=True)
class ConeSpec:
    """A pointed, full-dimensional rational cone of the given rank.

    The normal order is part of the data: ceiling vectors, cells, and
    reports all read coordinates in this order.  ``generators`` carries
    primitive extreme rays when they were supplied or computed.
    """

    rank: int
    normals: tuple[IntVec, ...]
    generators: tuple[IntVec, ...] | None = None

    def __post_init__(self):
        d = self.rank
        if d < 1:
            raise InputError(f"rank must be >= 1, got {d}")
        if not self.normals:
            raise InputError("at least one facet normal is required")
        for i, n in enumerate(self.normals):
            if len(n) != d:
                raise InputError(f"normal {i} has length {len(n)}, expected {d}")
            if any(not isinstance(x, int) for x in n):
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
            for g in self.generators:
                if len(g) != d:
                    raise InputError("generator length does not match rank")

    @property
    def simplicial(self) -> bool:
        """Whether there are exactly rank normals; they span, so they are
        then linearly independent."""
        return len(self.normals) == self.rank


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
        and ratgeom.rank([f for f, tight in facets if i in tight]) == d - 1)
    return idx, tuple(rays[i] for i in idx), tuple(f for f, _ in facets)


def _adjugate_rays(base: list[IntVec]) -> list[IntVec]:
    """Rays pairing positively with one base row and zero with the rest.

    Ray j spans the kernel of the other base rows; it is the primitive
    kernel vector, oriented to pair positively with row j.
    """
    rays = []
    for j, row in enumerate(base):
        ker = ratgeom.rref_kernel_basis(base[:j] + base[j + 1:], len(base))
        side = dot(ker[0], row) if len(ker) == 1 else 0
        if side == 0:
            raise InternalInvariantError("base rows are singular")
        rays.append(ker[0] if side > 0 else neg(ker[0]))
    return rays


def double_description(rows: tuple[IntVec, ...],
                       dim: int) -> tuple[tuple[IntVec, frozenset[int]], ...]:
    """Extreme rays of {x : <x, r> >= 0 for all r in rows}, each with the
    indices k of its tight rows, <ray, rows[k]> = 0; sorted by ray.

    rows must have rank == dim so the solution cone is pointed.  Seed
    with the first dim independent rows, then add the others one at a
    time; each ray carries its tight set over the rows added so far.  A
    new ray comes from an adjacent pair p, q on either side of the new
    row i and is tight on their common rows and on i.

    Adjacency is combinatorial (Fukuda & Prodon, 1996): p and q are
    adjacent iff no other ray r has tight[p] & tight[q] <= tight[r].
    The smallest face holding p and q is cut out by their common tight
    rows, and its extreme rays are the rays whose tight sets contain
    that set.  It is 2-dimensional, that is p and q are adjacent, iff p
    and q are its only extreme rays.
    """
    # Pivot columns of the transpose are the greedily chosen base rows.
    base = ratgeom.echelon([[r[j] for r in rows] for j in range(dim)], len(rows))[1]
    if len(base) < dim:
        raise InputError("rows do not span: solution cone is not pointed")
    seeds = _adjugate_rays([rows[i] for i in base])
    tight = {r: frozenset(base) - {i} for i, r in zip(base, seeds)}
    for i in range(len(rows)):
        if i in base:
            continue
        vals = {r: dot(r, rows[i]) for r in tight}
        pos = [r for r in tight if vals[r] > 0]
        neg = [r for r in tight if vals[r] < 0]
        fresh = {}
        for p in pos:
            for q in neg:
                common = tight[p] & tight[q]
                if any(common <= tight[r] for r in tight if r != p and r != q):
                    continue
                w = tuple(vals[p] * qc - vals[q] * pc for pc, qc in zip(p, q))
                fresh[primitive(w)] = common | {i}
        tight = {r: s | {i} if vals[r] == 0 else s
                 for r, s in tight.items() if vals[r] >= 0}
        tight.update(fresh)
    return tuple(sorted(tight.items()))


def dual_extreme_rays(rows: tuple[IntVec, ...], dim: int) -> tuple[IntVec, ...]:
    """The rays of ``double_description``, lex sorted."""
    return tuple(ray for ray, _ in double_description(rows, dim))


def from_normals(rank: int, normals) -> ConeSpec:
    """Build a cone from facet normals given exactly; no cleanup is done.

    Non-primitive or redundant normals are rejected rather than fixed.
    """
    rows = tuple(intvec(n) for n in normals)
    return ConeSpec(rank=rank, normals=rows)


def from_dual_rays(rank: int, rays) -> ConeSpec:
    """Build a cone from generators of the dual cone.

    Rays are primitivized and redundant ones dropped; the survivors, in
    input order, become the facet normals.
    """
    rows = []
    for i, r in enumerate(rays):
        v = intvec(r)
        if len(v) != rank:
            raise InputError(f"dual ray {i} has length {len(v)}, expected {rank}")
        if all(x == 0 for x in v):
            raise InputError(f"dual ray {i} is zero")
        rows.append(primitive(v))
    if ratgeom.rank(rows) < rank:
        raise InputError("cone is not pointed: dual rays do not span")
    _, normals, rays = _minimal_generators(rows)
    if ratgeom.rank(rays) < rank:
        raise InputError("cone is not full-dimensional: dual rays contain a line")
    return ConeSpec(rank=rank, normals=normals)


def from_primal_rays(rank: int, rays) -> ConeSpec:
    """Build a cone from its own generating rays via double description."""
    rows = []
    for i, r in enumerate(rays):
        v = intvec(r)
        if len(v) != rank:
            raise InputError(f"ray {i} has length {len(v)}, expected {rank}")
        if all(x == 0 for x in v):
            raise InputError(f"ray {i} is zero")
        rows.append(primitive(v))
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
