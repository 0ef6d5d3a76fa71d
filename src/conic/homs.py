"""Graded hom spaces between chamber modules.

Maps between shifted-cone modules are spanned by monomials: x^m maps
the module of c into the module of cp exactly when the translated
ceiling vector clears cp entrywise, so the support of the hom space is
the lattice region <m, n_i> >= cp_i - c_i.  Whether that region is
itself the support of a chamber module reduces to feasibility of the
difference vector.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chambers import is_feasible, leq, nhat, require_chamber
from .cone import ConeSpec
from .errors import InputError, InternalInvariantError, UnsupportedOperationError
from .ratgeom import IntVec, add, sub


@dataclass(frozen=True)
class MonomialSupport:
    """Lattice region {m : <m, n_i> >= bound_i for all i}."""

    bound: IntVec


def hom_support(spec: ConeSpec, c, cp) -> MonomialSupport:
    """Monomial support of the hom space from the module of c to cp."""
    a = require_chamber(spec, c)
    b = require_chamber(spec, cp)
    return MonomialSupport(bound=sub(b, a))


def supports_monomial(spec: ConeSpec, sup: MonomialSupport, m) -> bool:
    return all(x >= y for x, y in zip(nhat(spec, m), sup.bound))


def hom_dim_degree_zero(spec: ConeSpec, c, cp) -> int:
    """Dimension of the degree-zero part: one when c contains into cp."""
    return 1 if leq(spec, c, cp) else 0


def is_radical_monomial(spec: ConeSpec, c, cp, m) -> bool:
    """Whether x^m : module(c) -> module(cp) misses being an isomorphism.

    The map is an isomorphism exactly when translation by m carries the
    ceiling vector of c onto cp; everything else in the support is
    radical.
    """
    a = require_chamber(spec, c)
    b = require_chamber(spec, cp)
    if not supports_monomial(spec, hom_support(spec, a, b), m):
        raise InputError(f"monomial {tuple(m)} is not in the hom support")
    return add(a, nhat(spec, m)) != b


def hom_is_conic(spec: ConeSpec, c, cp) -> bool:
    """Whether the hom support is the support of some chamber module.

    The support region determines its bound vector (the normals are
    irredundant, so every bound is attained on lattice points), hence it
    is conic exactly when the difference vector is itself feasible.
    Package code calls ``_conic_hom`` on class representatives.
    """
    return _conic_hom(spec, require_chamber(spec, c), require_chamber(spec, cp))


def _conic_hom(spec: ConeSpec, a: IntVec, b: IntVec) -> bool:
    return is_feasible(spec, sub(b, a))


def simplicial_hom_form(spec: ConeSpec, c, cp) -> IntVec:
    """Closed form for simplicial cones: the hom support bound is always
    a chamber, namely the difference of ceiling vectors."""
    if not spec.simplicial:
        raise UnsupportedOperationError(
            "closed hom form requires a simplicial cone")
    a = require_chamber(spec, c)
    b = require_chamber(spec, cp)
    diff = sub(b, a)
    # independent normals make every integer vector a chamber
    if not is_feasible(spec, diff):
        raise InternalInvariantError(
            f"difference {diff} infeasible on a simplicial cone")
    return diff
