"""Frobenius-style root decompositions of the semigroup ring.

The q-th root of the module of lattice points decomposes into chamber
modules, one summand per residue v in {0..q-1}^d, namely the chamber of
-v/q.  Counting summands per isomorphism class gives the decomposition;
the smallest q whose decomposition hits every class measures how fast
the roots see the whole category.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .cells import box_vertices, class_of, vertex_barycenter
from .chambers import enumerate_classes
from .cone import ConeSpec, per_cone
from .errors import InputError, UnsupportedOperationError
from .ratgeom import IntVec, dot

SEARCH_CAP = 64
# The most residues ``decompose_root`` lists: every q up to SEARCH_CAP at
# rank 4, and so every decomposition at a minimal q of rank <= 4.  At
# about 2 us (rank 2) to 6 us (rank 4) per residue on a 2-vCPU machine
# that is at most about 35 s and 100 s.
ROOT_BUDGET = SEARCH_CAP ** 4
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


@dataclass(frozen=True)
class RootDecomposition:
    q: int
    counts: tuple[tuple[IntVec, int], ...]
    total: int

    def count_of(self, rep: IntVec) -> int:
        for r, n in self.counts:
            if r == rep:
                return n
        return 0


@dataclass(frozen=True)
class DModuleReport:
    p: int
    minimal_q: int
    minimal_e: int
    q_at_e: int
    bound_low: int
    bound_high: int
    note: str


@per_cone
def _ceiling_classes(spec: ConeSpec) -> dict:
    # ceiling vector -> class, shared by every q listed on the cone
    return {}


def _residue_classes(spec: ConeSpec, q: int):
    """The class of the chamber of each residue of the q-th root, in
    product order.  Ceiling vectors are read through one table per cone
    (``_ceiling_classes``), mapping each to its class; a vector new to
    the table gets its class from ``cells.class_of``.  Every key is the
    ceiling vector of a point -v/q of (-1, 0]^d, so c_i lies in
    [min(0, 1 - P_i), N_i], P_i and N_i being the sums of the positive
    and of the negated negative entries of n_i: the table is bounded by
    the number of chambers meeting that cube, whatever q is."""
    table = _ceiling_classes(spec)
    lasts = [n[-1] for n in spec.normals]
    for head in product(range(q), repeat=spec.rank - 1):
        # <v, n> for v = head + (x,), and ceil(<-v/q, n>) = -floor(<v, n>/q)
        heads = [dot(head, n[:-1]) for n in spec.normals]
        for x in range(q):
            c = tuple(-((h + x * m) // q) for h, m in zip(heads, lasts))
            rep = table.get(c)
            if rep is None:
                rep = table[c] = class_of(spec, c)
            yield rep


def decompose_root(spec: ConeSpec, q: int) -> RootDecomposition:
    """Class counts of the chamber summands of the q-th root; InputError
    when its q^d residues are more than ROOT_BUDGET.  This is the one
    listing of residues: each q is listed once per cone and kept
    (``_decomposition``), and every q any search lists passes the
    budget here first (``_root_index``)."""
    return _decomposition(spec, _root_index(spec, q))


def _root_index(spec: ConeSpec, q) -> int:
    """q once checked: InputError unless it is a positive int whose q^d
    residues are at most ROOT_BUDGET."""
    if not isinstance(q, int) or isinstance(q, bool) or q < 1:
        raise InputError(f"root index must be a positive integer, got {q!r}")
    if q ** spec.rank > ROOT_BUDGET:
        raise InputError(
            f"the {q}-th root has {q ** spec.rank} residues, past the "
            f"budget of {ROOT_BUDGET}")
    return q


@per_cone
def _decomposition(spec: ConeSpec, q: int) -> RootDecomposition:
    # the residue listing of q, once its size is checked (decompose_root)
    counts: dict[IntVec, int] = {}
    for rep in _residue_classes(spec, q):
        counts[rep] = counts.get(rep, 0) + 1
    return RootDecomposition(
        q=q, counts=tuple(sorted(counts.items())), total=q ** spec.rank)


def _complete(spec: ConeSpec, q: int) -> bool:
    """Whether the residues of the q-th root meet every class.

    The residues are the points of (1/q)Z^d mod Z^d, so they meet a
    class iff its chamber holds a point of (1/q)Z^d, as a closed cube of
    side 1/q does.  Past SEARCH_CAP each chamber is first tried for such
    a cube about its witness w: it lies inside while |n_i|_1 < 2q s_i
    for every i, s_i being the distance from <w, n_i> to c_i - 1 and to
    c_i.  The cube holds at every q past a bound set by the chambers.
    Short of that, q is complete iff its decomposition (``decompose_root``)
    counts every class, so no q is listed twice on one cone and a q past
    ROOT_BUDGET is refused.
    """
    reps = enumerate_classes(spec).reps
    if q > SEARCH_CAP and all(_holds_cube(spec, rep, q) for rep in reps):
        return True
    return len(decompose_root(spec, q).counts) == len(reps)


def _holds_cube(spec: ConeSpec, c: IntVec, q: int) -> bool:
    # whether the cube of side 1/q about the witness, the barycenter of
    # the closed box, lies in the chamber of the representative c
    w = vertex_barycenter(spec, box_vertices(spec, c))
    for n, ci in zip(spec.normals, c):
        x = dot(w, n)
        if sum(map(abs, n)) >= 2 * q * min(ci - x, x - ci + 1):
            return False
    return True


def minimal_complete_q(spec: ConeSpec) -> int:
    """Smallest q whose root decomposition contains every class.

    Each q tried is decided from its decomposition (``_complete``), which
    the cone keeps, so a D-module search or a ``decompose_root`` at the q
    found lists nothing again.  UnsupportedOperationError when no q up to
    SEARCH_CAP is complete, and InputError when a q tried has more than
    ROOT_BUDGET residues (at rank 5, any q past 27)."""
    for q in range(1, SEARCH_CAP + 1):
        if _complete(spec, q):
            return q
    raise UnsupportedOperationError(
        f"no root up to {SEARCH_CAP} hits every class")


def _characteristic(p) -> None:
    """InputError unless p is a prime, which is decided below PRIME_BOUND
    only (``_is_prime``)."""
    if not isinstance(p, int) or not _is_prime(p):
        raise InputError(f"characteristic must be prime, got {p!r}")


def _is_prime(p: int) -> bool:
    """Miller-Rabin to the prime bases 2..41, which decide every p below
    PRIME_BOUND exactly (Sorenson & Webster, 2015); InputError above."""
    if p >= PRIME_BOUND:
        raise InputError(
            f"characteristic {p} is at least {PRIME_BOUND}, beyond which "
            "primality is not decided here")
    if p < 2:
        return False
    for b in PRIME_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in PRIME_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def dmodule_report(spec: ConeSpec, p: int) -> DModuleReport:
    """Smallest Frobenius power seeing every class, with the global
    dimension bracket for the induced endomorphism ring.

    minimal_e is the least e whose q = p^e is complete, decided at p^e
    itself: a q >= minimal_q need not be complete.  The search starts at
    the least p^e >= minimal_q, as nothing below it is complete, and may
    stop at the first complete power: the residues of p^e are the points
    of (1/p^e)Z^d mod Z^d, which lie inside (1/p^(e+1))Z^d, so along the
    powers of one prime completeness never turns off again.  Each power
    is decided as in ``minimal_complete_q``, from its decomposition,
    which the two searches share; InputError when a power that the cube
    certificate does not decide has more than ROOT_BUDGET residues.
    """
    _characteristic(p)
    qmin = minimal_complete_q(spec)
    e = 0
    while p ** e < qmin:
        e += 1
    while not _complete(spec, p ** e):
        e += 1
    return DModuleReport(
        p=p, minimal_q=qmin, minimal_e=e, q_at_e=p ** e,
        bound_low=spec.rank, bound_high=spec.rank + 1,
        note=("the ring of differential operators has global dimension "
              "in this bracket; equality at the lower bound is "
              "conjectural, not computed here"))
