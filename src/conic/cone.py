"""Cone presentations, validation, and facet restriction.

A cone is held by the primitive inward normals of its facets.  The
normals live in the dual lattice; the cone is the locus pairing
nonnegatively with each of them.  All arithmetic is exact.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from . import ratgeom
from .errors import InputError, InternalInvariantError
from .ratgeom import EQ, LE, IntVec, dot, intvec, neg, primitive


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
        # interior point pairing >= 1 with every normal, scale-invariant test
        interior = ratgeom.system(
            d, [(tuple(-x for x in n), LE, -1) for n in self.normals]
        )
        if not ratgeom.feasible(interior):
            raise InputError("cone is not full-dimensional")
        for i, n in enumerate(self.normals):
            others = self.normals[:i] + self.normals[i + 1 :]
            if others and _in_cone_of(n, others):
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


def _in_cone_of(vec: IntVec, others: tuple[IntVec, ...]) -> bool:
    """Whether vec is a nonnegative rational combination of others."""
    k = len(others)
    rows = []
    for c in range(len(vec)):
        rows.append((tuple(o[c] for o in others), EQ, vec[c]))
    for j in range(k):
        e = tuple(-1 if i == j else 0 for i in range(k))
        rows.append((e, LE, 0))
    return ratgeom.feasible(ratgeom.system(k, rows))


def _minimal_generators(rays: list[IntVec]) -> tuple[tuple[int, ...], tuple[IntVec, ...]]:
    """Indices and values of the extremal rays among primitive rays.

    Exact duplicates are removed first, then non-extremal rays one at a
    time; survivors keep their input order.
    """
    seen = {}
    for i, r in enumerate(rays):
        if r not in seen:
            seen[r] = i
    order = sorted(seen.values())
    alive = [rays[i] for i in order]
    idx = list(order)
    changed = True
    while changed:
        changed = False
        for k in range(len(alive)):
            others = tuple(alive[:k] + alive[k + 1 :])
            if others and _in_cone_of(alive[k], others):
                del alive[k]
                del idx[k]
                changed = True
                break
    return tuple(idx), tuple(alive)


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


def dual_extreme_rays(rows: tuple[IntVec, ...], dim: int) -> tuple[IntVec, ...]:
    """Extreme rays of {x : <x, r> >= 0 for all r in rows}, lex sorted.

    rows must have rank == dim so the solution cone is pointed.  Double
    description: seed with a full-rank row subset, then add the
    remaining rows; new rays come from adjacent positive/negative pairs,
    adjacency tested by the rank of the common tight rows.
    """
    if ratgeom.rank(rows) < dim:
        raise InputError("rows do not span: solution cone is not pointed")
    base_idx: list[int] = []
    for i in range(len(rows)):
        if ratgeom.rank([rows[j] for j in base_idx] + [rows[i]]) > len(base_idx):
            base_idx.append(i)
        if len(base_idx) == dim:
            break
    rest = [i for i in range(len(rows)) if i not in base_idx]
    processed = list(base_idx)
    rays = _adjugate_rays([rows[i] for i in base_idx])
    for i in rest:
        n = rows[i]
        vals = {r: dot(r, n) for r in rays}
        pos = [r for r in rays if vals[r] > 0]
        zero = [r for r in rays if vals[r] == 0]
        neg = [r for r in rays if vals[r] < 0]
        if neg:
            tight = {
                r: [k for k in processed if dot(r, rows[k]) == 0] for r in rays
            }
            fresh = []
            for p in pos:
                for q in neg:
                    common = [rows[k] for k in tight[p] if k in set(tight[q])]
                    if ratgeom.rank(common) != dim - 2:
                        continue
                    w = primitive(
                        tuple(
                            vals[p] * qc - vals[q] * pc for pc, qc in zip(p, q)
                        )
                    )
                    if w not in fresh:
                        fresh.append(w)
            rays = pos + zero + fresh
        processed.append(i)
    return tuple(sorted(set(rays)))


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
    strict = ratgeom.system(
        rank, [(tuple(-x for x in r), LE, -1) for r in rows]
    )
    if not ratgeom.feasible(strict):
        raise InputError("cone is not full-dimensional: dual rays contain a line")
    _, normals = _minimal_generators(rows)
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
    strict = ratgeom.system(
        rank, [(tuple(-x for x in r), LE, -1) for r in rows]
    )
    if not ratgeom.feasible(strict):
        raise InputError("cone is not pointed")
    normals = dual_extreme_rays(tuple(rows), rank)
    _, gens = _minimal_generators(rows)
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
    pos, normals = _minimal_generators(prims)
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
