"""Chain complexes of open conic summands and what they compute.

The complex of a chamber has one summand per cell, placed by
codimension, with differential entries given by incidence signs.  It is
exact over Z, so its Smith invariants are read off the cell census
(``smith_invariants``) and no report needs a Smith form:

- Let P be the chamber's closed box, c_i - 1 <= <x, n_i> <= c_i for
  every normal n_i, a d-polytope, and L the union of its lower facets,
  those on which some bound <x, n_i> = c_i - 1 is tight.
- A cell is a face on which only upper bounds are tight, that is a face
  of P not contained in L (a face that lies in a union of facets lies in
  one of them).  With codimension as degree and the signs of
  ``cells.incidence_sign``, whose docstring proves them the determinant
  orientation signs, the complex is the cellular cochain complex of the
  pair (P, L).
- Take u inside the cone, so <u, n_i> > 0 for every i.  Seen from
  x - s u, for x in P and s large, the visible facets of P are exactly
  the lower ones.  So L is a shellable (d - 1)-ball (Bruggesser-Mani
  line shellings; Ziegler, Lectures on Polytopes, ch. 8), and
  H*(P, L; Z) = 0.
- A bounded exact complex of finitely generated free Z-modules splits,
  so every elementary divisor of every differential is 1.  Their number
  is the differential's rank: the map out of the top degree is
  injective, the map from degree k + 1 to degree k has rank
  r_k = census[k + 1] - r_{k + 1}, and degree 0, the open cell alone, is
  hit onto.  Hence sum_k (-1)^k census[k] = chi(P) - chi(L) = 1 - 1 = 0,
  which ``cells._interned`` checks once on every distinct pattern.

The degreewise slices of the complex against any other chamber are
exact away from a single distinguished slot, which is what makes the
complexes projective resolutions of the graded simples after applying
the hom functor.  The same tools prove it:

- Write h(m) = (<m, n_i>)_i.  At lattice point m the slice against the
  chamber cp keeps summand k, the chamber c plus the 0/1 bumps of the
  set P_k of indices its cell pins, iff y = cp + h(m) >= c entrywise
  and P_k lies in S = {i : y_i > c_i}.  y is itself a chamber.  If y is
  not >= c nothing survives, and S is empty iff y = c, where the open
  cell alone survives, with ranks (1, 0, ...): the distinguished slot.
- Let y >= c be a chamber other than c, so S is not empty, and pick z
  in the open box of y, y_i - 1 < <z, n_i> < y_i for every i (from a
  point x of y's chamber, x - e u with u as above and e > 0 small is
  one).  Then <z, n_i> > c_i for i in S and c_i - 1 < <z, n_i> < c_i
  for every other i: z lies on none of P's bounding hyperplanes, and it
  is outside P, beyond exactly the upper facets with index in S.
- Let W be the union of the facets of P that are not visible from z.
  It holds every lower facet, and z, being outside P, is beyond at
  least one facet, which is then outside W.  The facets visible from z
  come first in a line shelling of the boundary of P, and a line
  shelling read backwards is one too, so W is a shellable (d - 1)-ball
  (Bruggesser-Mani; Ziegler, Lectures on Polytopes, section 8.2).
- A face F of P lies in W iff one of its tight bounds has z strictly
  beneath it, that is iff it has a tight lower bound or a tight upper
  bound outside S.  One way, F lies in a facet whose bound is one.  The
  other way, the outer normal a of such a bound, <a, x> <= b on P, lies
  in the normal cone of P at F, so a = sum l_j a_j with l_j >= 0 over
  the facets <a_j, x> <= b_j through F, and b = sum l_j b_j on F; then
  <a, z> < b gives <a_j, z> < b_j for some j, a facet through F that
  is not visible from z.
- So the faces of P outside W are the cells whose pinned set P_k lies
  in S, and the slice at y keeps exactly those.  It is the cellular
  cochain complex of the pair (P, W), with the signs of
  ``cells.incidence_sign`` as above.  P and W are both contractible,
  so H*(P, W; Z) = 0 and the slice is exact.

So every window of c, against every cp and at every radius, has
homology only at the lattice point m with h(m) = c - cp, which exists
iff c and cp have one class (c - cp is then a pairing vector) and is
unique (the pairing map is injective): rank one in degree zero.  Every
window of a chamber complex is answered in one place
(``_acyclicity``), from this alone, with no pass and nothing kept.

A resolution over a partial summand support (``resolution``) has the
same windows against the support's chambers.  Let K be the complex of
c.  Each summand s of K whose class is outside the support, of degree
k_s in K (its K-degree), is spliced out: the positive degrees of its
own chamber complex Ks take its place, degree j at degree k_s + j - 1,
as block s of the spliced complex F.  The chain map phi: F -> K is 1 on
the kept summands, the augmentation eps_s of Ks onto s on block s's
degree-1 summands, and 0 deeper: F's kept rows are d_K phi, and
``_resolution`` solves phi D = d_K phi at every excluded position, in
every column.  Inside block s, D is Ks's own differential, and an entry
from block s' into another block s is solved only when k_s' > k_s.  Take
the slice at a lattice point m against a chamber cp of the support:

- The slice of Ks is exact in every degree, degree 0 included: its only
  homology is at cp + h(m) = s, and s's class is not cp's.  So eps_s is
  onto s's slice, and phi, which is 1 on the kept summands, is onto.
- The kernel of phi has no kept part, and its part on block s is the
  truncation of Ks's slice: ker eps_s in degree 1, then Ks's degrees 2,
  3, ...  Each truncation is exact, as Ks's slice is.
- The blocks of K-degree at most p span a subcomplex N_p of the kernel,
  since D only sends a block to itself, to kept rows (which the kernel
  has not) and to blocks of lower K-degree.  N_p / N_(p - 1) is the
  direct sum of the truncations with k_s = p, each with Ks's own
  differential, so it is exact, and by induction on p so is the kernel.
- So phi is a quasi-isomorphism on the slice (the long exact sequence
  of 0 -> ker phi -> F -> K -> 0), and F's slice has K's homology.

So F's windows against the support's chambers report exactly what K's
do.  ``_resolution`` checks that D's entries are eligible and that D
squares to zero, and no window pass is left in the package:
``WINDOW_BUDGET`` refuses a window by its size alone.

Lattice translation keeps cells, so a chamber's complex is its class's
cell pattern placed at the chamber: the terms are the chamber plus a 0/1
bump per cell, and the differentials are shared.  So every per-cone
table of chamber complexes is keyed by cell pattern, never by chamber,
offset or radius, and complexes are built on request.  Spliced
resolutions are kept per support and chamber asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ratgeom
from .cells import (
    Cell,
    _preimage,
    _sign,
    ceiling_vector,
    class_of,
    class_pattern,
    open_conic,
    pattern_census,
    require_gate,
)
from .chambers import (
    canonical_class,
    enumerate_classes,
    nhat,
    require_chamber,
)
from .cone import ConeSpec, per_cone
from .errors import (
    InputError,
    InternalInvariantError,
    SupportNotClosedError,
)
from .homs import _conic_hom
from .ratgeom import IntVec, add, intvec, sub

# Most lattice points one acyclicity window may hold; (2r + 1)^d for
# radius r at rank d.
WINDOW_BUDGET = 10 ** 6


@dataclass(frozen=True)
class ConicComplex:
    """Cellular complex of one chamber.

    terms[i] lists the open conic ceiling vectors of the codimension-i
    cells; mats[i] is the integer matrix of the differential from
    degree i+1 to degree i (rows index terms[i], columns terms[i+1]).
    mats reads only the cells' (omega, codim), so chambers with one cell
    pattern share it.
    """

    chamber: IntVec
    terms: tuple[tuple[IntVec, ...], ...]
    cells: tuple[tuple[Cell, ...], ...]
    mats: tuple[tuple[tuple[int, ...], ...], ...]


@dataclass(frozen=True)
class SplicedComplex:
    """Complex over a restricted summand support.

    Entries of mats are Fractions in general.  origins tags each
    summand: ("kept", pos) for a surviving cell of the chamber complex,
    ("sub", s, j, pos) for position pos of degree j of the complex
    spliced in for excluded summand number s.
    """

    chamber: IntVec
    support: tuple[IntVec, ...]
    terms: tuple[tuple[IntVec, ...], ...]
    origins: tuple[tuple[tuple, ...], ...]
    mats: tuple[tuple[tuple[Fraction, ...], ...], ...]
    spliced: bool


@dataclass(frozen=True)
class ScalarComplex:
    """One graded slice: dimensions and scalar differential matrices."""

    dims: tuple[int, ...]
    mats: tuple[tuple[tuple[Fraction, ...], ...], ...]


@dataclass(frozen=True)
class AcyclicityReport:
    chamber: IntVec
    other: IntVec
    radius: int
    checked: int
    hits: tuple[IntVec, ...]
    failures: tuple[tuple, ...]
    witness: IntVec | None
    passed: bool


@dataclass(frozen=True)
class ResolutionReport:
    """Shape of the projective resolution of one graded simple.

    validated_radius is the window given to ``resolution``, or its
    default radius, when the resolution is spliced, and None when it is
    not; the module docstring's proof covers every radius.
    """

    chamber: IntVec
    support: tuple[IntVec, ...]
    terms: tuple[tuple[tuple[IntVec, int], ...], ...]
    length: int
    spliced: bool
    complex: SplicedComplex
    validated_radius: int | None


@dataclass(frozen=True)
class NccrVerdict:
    verdict: str
    support: tuple[IntVec, ...]
    complete: bool
    witness: IntVec | None
    reasons: tuple[str, ...]


def _check_d2(mats) -> None:
    for i, (a, b) in enumerate(zip(mats, mats[1:])):
        for row in a:
            # the row of a times b, from the nonzero entries of the row only
            scaled = [[x * y for y in b[k]] for k, x in enumerate(row) if x]
            if any(map(sum, zip(*scaled))):
                raise InternalInvariantError(
                    f"differential does not square to zero at degree {i}")


def conic_complex(spec: ConeSpec, c) -> ConicComplex:
    """The cellular complex of a chamber, with d*d = 0 verified;
    InputError unless c is a chamber.

    Cells of consecutive codimension are a facet pair iff the inner
    omega is a proper subset of the outer one; each cell's omega set is
    built once, and the sign comes from the per-cone table.
    """
    cc, _, pattern = require_gate(spec, c)
    return _complex(spec, cc, pattern)


def _complex(spec: ConeSpec, c: IntVec, pattern) -> ConicComplex:
    # The complex of a cell pattern placed at the ceiling vector c, built
    # on request and kept by no table.  A chamber's complex is its class's
    # pattern placed at the chamber, whose open cell ``cells._interned``
    # has checked to be the one whose open conic is c; the differentials
    # are kept per pattern (``_differentials``).
    cells = [[] for _ in range(pattern[-1][1] + 1)]
    terms = [[] for _ in cells]
    for omega, codim in pattern:
        cell = Cell(c, omega, codim)
        cells[codim].append(cell)
        terms[codim].append(open_conic(cell))
    return ConicComplex(chamber=c, terms=tuple(map(tuple, terms)),
                        cells=tuple(map(tuple, cells)),
                        mats=_differentials(spec, pattern))


@per_cone
def _differentials(spec: ConeSpec, pattern) -> tuple:
    # The differentials of every chamber complex with this cell pattern,
    # with d*d = 0 checked once: an entry reads only the two omegas, the
    # sign from the per-cone table where the inner omega is a proper
    # subset of the outer one.
    rows = [[] for _ in range(pattern[-1][1] + 1)]
    for omega, codim in pattern:
        rows[codim].append((omega, set(omega)))
    mats = tuple(
        tuple(tuple(_sign(spec, inner, outer) if inner_set < outer_set else 0
                    for inner, inner_set in rows[i + 1])
              for outer, outer_set in rows[i])
        for i in range(len(rows) - 1))
    _check_d2(mats)
    return mats


def homology_ranks(sc: ScalarComplex) -> tuple[int, ...]:
    """Rank of the homology at each degree of a scalar complex."""
    ranks = [ratgeom.rank(m) for m in sc.mats]
    out = []
    for i, dim in enumerate(sc.dims):
        r_out = ranks[i - 1] if i >= 1 else 0
        r_in = ranks[i] if i < len(ranks) else 0
        h = dim - r_out - r_in
        if h < 0:
            raise InternalInvariantError("negative homology rank")
        out.append(h)
    return tuple(out)


def _slice(cx, keep) -> ScalarComplex:
    # the scalar complex on the summand positions keep[i] of each degree i
    return ScalarComplex(
        dims=tuple(map(len, keep)),
        mats=tuple(
            tuple(tuple(mat[r][col] for col in keep[i + 1]) for r in keep[i])
            for i, mat in enumerate(cx.mats)))


def graded_piece(spec: ConeSpec, cx, cp, m) -> ScalarComplex:
    """Slice of hom from the chamber module of cp into a complex.

    A summand survives at lattice point m exactly when the translated
    module of cp lands inside it, which is an entrywise ceiling
    comparison.  Kept columns only ever map to kept rows, so the slice
    really is a complex.
    """
    target = add(ceiling_vector(spec, cp), nhat(spec, m))
    return _slice(cx, [
        tuple(j for j, vec in enumerate(row)
              if all(x >= y for x, y in zip(target, vec)))
        for row in cx.terms])


def default_window(c, cp) -> int:
    """Default acyclicity window radius for a chamber pair."""
    return 2 * (1 + max(abs(a - b) for a, b in zip(intvec(c), intvec(cp))))


def _window_radius(window) -> int:
    """The window radius as given; InputError unless it is an int >= 0."""
    if isinstance(window, bool) or not isinstance(window, int) or window < 0:
        raise InputError(
            f"window radius must be a nonnegative integer, got {window!r}")
    return window


def _window_points(spec: ConeSpec, radius: int) -> int:
    """The (2r + 1)^d points of the window of radius r; InputError when
    they are more than WINDOW_BUDGET."""
    points = (2 * radius + 1) ** spec.rank
    if points > WINDOW_BUDGET:
        raise InputError(
            f"the window of radius {radius} has {points} points, past the "
            f"budget of {WINDOW_BUDGET}")
    return points


def verify_acyclicity(spec: ConeSpec, c, cp, window: int | None = None) -> AcyclicityReport:
    """Check slice exactness of the chamber complex against one chamber.

    Every homology rank over the window must vanish except a single
    rank-one slot in degree zero at the lattice point translating cp
    onto c, when that point exists and lies inside the window.  InputError
    unless both are chambers; package code calls ``_acyclicity``.
    """
    return _acyclicity(spec, require_gate(spec, c)[:2],
                       require_gate(spec, cp)[:2], window)


def _acyclicity(spec: ConeSpec, gate, other, window) -> AcyclicityReport:
    """verify_acyclicity of gated chambers, c and cp each given with its
    class representative: the one place that answers a chamber-complex
    window.  InputError when the window's (2r + 1)^d points are more
    than WINDOW_BUDGET (``_window_points``).

    By the module docstring's proof every window of every chamber
    complex passes, so the report is the passing one, read with no pass.
    Its witness is the lattice point m with h(m) = c - cp
    (``cells._preimage``) when c and cp have one class representative,
    and None otherwise: c - cp is a pairing vector exactly when the
    classes agree.  Its hits are (witness,) when the witness lies in the
    window and () if not.  So a window costs its two gates and at most
    one ``_preimage``, and keeps no table of its own in the store.
    """
    c, rep = gate
    cp, cp_rep = other
    radius = (default_window(c, cp) if window is None
              else _window_radius(window))
    checked = _window_points(spec, radius)
    witness = _preimage(spec, sub(c, cp)) if cp_rep == rep else None
    inside = witness is not None and all(abs(x) <= radius for x in witness)
    return AcyclicityReport(
        chamber=c, other=cp, radius=radius, checked=checked,
        hits=(witness,) if inside else (), failures=(), witness=witness,
        passed=True)


def pdim_simple(spec: ConeSpec, c) -> int:
    """Projective dimension of the graded simple of a chamber: top codim,
    the last of its class pattern."""
    return require_gate(spec, c)[2][-1][1]


def global_dimension(spec: ConeSpec) -> int:
    """Maximum projective dimension over all classes; must equal the rank."""
    # one pattern lookup per class: pdim is the pattern's last codim
    top = max(class_pattern(spec, rep)[-1][1]
              for rep in enumerate_classes(spec).reps)
    if top != spec.rank:
        raise InternalInvariantError(
            f"global dimension {top} differs from rank {spec.rank}")
    return top


def ext_dims(spec: ConeSpec, c, cp) -> tuple[int, ...]:
    """Dimensions of the ext spaces from the simple of c to the simple of cp.

    Degree i counts codimension-i cells whose open conic falls in the
    class of cp: the hom-complex differentials are radical, so they
    vanish on simples and the count is the whole answer.
    """
    cc, _, pattern = require_gate(spec, c)
    cx = _complex(spec, cc, pattern)
    rep = canonical_class(spec, cp)
    return tuple(
        sum(1 for vec in row if class_of(spec, vec) == rep)
        for row in cx.terms)


def smith_invariants(spec: ConeSpec, c) -> tuple[tuple[int, ...], ...]:
    """Elementary divisors of each differential of a chamber complex, the
    one from degree k + 1 to degree k at index k: all 1, as many as its
    rank r_k = census[k + 1] - r_{k + 1} by the exactness proof of the
    module docstring, read off the class's cell census with no matrix."""
    census = pattern_census(require_gate(spec, c)[2])
    ranks = [0]
    for k in range(max(census), 0, -1):
        ranks.append(census.get(k, 0) - ranks[-1])
    return tuple((1,) * r for r in reversed(ranks[1:]))


# --------------------------------------------------------------------------
# splice resolutions over a partial summand support


def _canonical_support(spec: ConeSpec, support) -> tuple[IntVec, ...]:
    return tuple(sorted({canonical_class(spec, intvec(c)) for c in support}))


def _entrywise_geq(a, b) -> bool:
    return all(x >= y for x, y in zip(a, b))


def resolution(spec: ConeSpec, support, c, window: int | None = None) -> ResolutionReport:
    """Resolution of the simple of c over the given summand support.

    Summands of the chamber complex K whose class is outside the support
    are spliced out through their own complexes (one substitution
    round); if those complexes again contain classes outside the
    support, the support is not closed and the offending cells are
    reported.  The spliced complex F maps to K by a chain map phi: a
    kept summand by 1 onto its own position, a degree-1 summand p of the
    complex Ks spliced in for s onto s's position by Ks.mats[0][0][p],
    deeper summands to 0.  So each differential D_i has kept rows
    d_K phi_{i+1} and, inside one spliced complex, that complex's own
    differential; every other entry is 0 unless eligible, and eligible
    ones solve phi_i D_i = d_K phi_{i+1} at the excluded positions of
    K_i and D_{i-1} D_i = 0.  A spliced row takes an entry in another
    spliced complex's column only when that complex replaces a summand
    of higher degree in K.  A complete support excludes nothing, so F is
    K.  By the module docstring's proof every window of F against the
    support's chambers reports what K's does, so no window is checked:
    validated_radius is the window given, or the default radius
    2(1 + max |c - rep|) over the support's representatives, and None
    when nothing is spliced.  A window given is checked against
    WINDOW_BUDGET, whether or not anything is spliced.  InputError
    unless the chamber's own class belongs to the support.  The split:
    ``resolution`` gates and reports, ``_resolution`` builds and checks;
    package code calls ``_resolution`` on class representatives.
    """
    cc = require_chamber(spec, c)
    if window is not None:
        _window_points(spec, _window_radius(window))
    reps = _canonical_support(spec, support)
    if class_of(spec, cc) not in reps:
        raise InputError("the chamber's own class must belong to the support")
    cx = _resolution(spec, reps, cc)
    radius = (max(default_window(cc, rep) for rep in reps) if window is None
              else window)
    return _report(spec, cx, reps, radius if cx.spliced else None)


@per_cone
def _resolution(spec: ConeSpec, reps, cc: IntVec) -> SplicedComplex:
    # the spliced complex of a gated chamber whose class is in its
    # support's sorted representatives; kept per (support, chamber)
    # asked, one complex each, and nothing for a call that raises
    sup = set(reps)
    K = _complex(spec, cc, class_pattern(spec, class_of(spec, cc)))
    excluded, subs = [], []
    for k in range(1, len(K.terms)):
        for pos, vec in enumerate(K.terms[k]):
            if (rep := class_of(spec, vec)) not in sup:
                excluded.append((k, pos))
                subs.append(_complex(spec, vec, class_pattern(spec, rep)))
    bad_cells = [
        Ks.cells[j][p] for Ks in subs for j in range(1, len(Ks.terms))
        for p, vec in enumerate(Ks.terms[j])
        if class_of(spec, vec) not in sup]
    if bad_cells:
        raise SupportNotClosedError(
            "support is not closed under one substitution round",
            cells=tuple(bad_cells))

    # F_i: the kept summands of K_i, then degree i - k + 1 of the complex
    # spliced in for each excluded summand of degree k
    origins = [
        [("kept", pos) for pos in range(len(row)) if (i, pos) not in excluded]
        for i, row in enumerate(K.terms)]
    for s, ((k, _), Ks) in enumerate(zip(excluded, subs)):
        for j in range(1, len(Ks.terms)):
            if k + j - 1 == len(origins):
                origins.append([])
            origins[k + j - 1] += [("sub", s, j, p) for p in range(len(Ks.terms[j]))]
    # The top row is never empty.  A row of K whose summands are all
    # excluded gets their complexes' degree-1 summands, and every chamber
    # complex has one: it is exact, so they map onto its open cell.  A
    # row past K's top holds the top degree of some spliced complex.
    terms = tuple(
        tuple(K.terms[i][t[1]] if t[0] == "kept" else subs[t[1]].terms[t[2]][t[3]]
              for t in row)
        for i, row in enumerate(origins))
    # phi_i, the |K_i| x |F_i| matrix of the chain map F -> K
    kdims = [len(row) for row in K.terms] + [0] * (len(origins) - len(K.terms))
    phi = [[[1 if t == ("kept", q)
             else subs[t[1]].mats[0][0][t[3]]
             if t[0] == "sub" and t[2] == 1 and excluded[t[1]][1] == q else 0
             for t in row] for q in range(kdim)]
           for row, kdim in zip(origins, kdims)]
    mats = []
    for i in range(len(terms) - 1):
        rows, cols = origins[i], origins[i + 1]
        # d_K phi_{i+1}, zero where F runs past K's top degree
        dk = ([[sum(x * phi[i + 1][q][col] for q, x in enumerate(krow) if x)
                for col in range(len(cols))] for krow in K.mats[i]]
              if i < len(K.mats) else [[0] * len(cols)] * kdims[i])
        # D_i: kept rows from dk and each spliced block's own differential;
        # a spliced row is free (and 0 until solved) where it is eligible
        # in a kept column or in the column of a block whose excluded
        # summand has the higher degree in K, so that the blocks of K-degree
        # at most p span a subcomplex (module docstring)
        D = [[Fraction(x) for x in dk[t[1]]] if t[0] == "kept" else
             [Fraction(subs[t[1]].mats[t[2]][t[3]][ct[3]] if ct[:2] == t[:2] else 0)
              for ct in cols] for t in rows]
        free = [[r for r, t in enumerate(rows) if t[0] == "sub"
                 and (ct[0] == "kept" or excluded[ct[1]][0] > excluded[t[1]][0])
                 and _entrywise_geq(terms[i + 1][col], terms[i][r])]
                for col, ct in enumerate(cols)]
        # phi_i D_i = d_K phi_{i+1} at the excluded positions of K_i, and
        # D_{i-1} D_i = 0 on the nonzero rows of D_{i-1}
        lhs = [phi[i][pos] for k, pos in excluded if k == i]
        rhs = [dk[pos] for k, pos in excluded if k == i]
        chain_rows = bool(lhs)
        if i:
            nonzero = [row for row in mats[i - 1] if any(row)]
            lhs += nonzero
            rhs += [[0] * len(cols)] * len(nonzero)
        for col, vars_ in enumerate(free):
            # a column with no free entry is solved too where degree i has
            # chain-map rows, so phi is a chain map in every column or the
            # splice raises; D_{i-1} D_i = 0 alone is left to _check_d2
            if not (vars_ or chain_rows):
                continue
            # free entries of D are still 0, so a row's whole product is
            # the constant part
            sol = ratgeom.linear_solve(
                [[a[r] for r in vars_] for a in lhs],
                [b[col] - sum(x * D[r][col] for r, x in enumerate(a) if x)
                 for a, b in zip(lhs, rhs)], len(vars_))
            if sol is None:
                raise InternalInvariantError("splice lift system is inconsistent")
            for r, x in zip(vars_, sol):
                D[r][col] = x
        mats.append(tuple(map(tuple, D)))
    if excluded:
        if any(x and not _entrywise_geq(terms[i + 1][ci], terms[i][ri])
               for i, mat in enumerate(mats) for ri, row in enumerate(mat)
               for ci, x in enumerate(row)):
            raise InternalInvariantError(
                "ineligible nonzero entry in spliced differential")
        _check_d2(mats)
    return SplicedComplex(
        chamber=cc, support=reps, terms=terms,
        origins=tuple(map(tuple, origins)), mats=tuple(mats),
        spliced=bool(excluded))


def _report(spec: ConeSpec, cx: SplicedComplex, reps, validated_radius) -> ResolutionReport:
    shape = []
    for row in cx.terms:
        counts: dict[IntVec, int] = {}
        for vec in row:
            rep = class_of(spec, vec)
            counts[rep] = counts.get(rep, 0) + 1
        shape.append(tuple(sorted(counts.items())))
    return ResolutionReport(
        chamber=cx.chamber, support=reps, terms=tuple(shape),
        length=len(cx.terms) - 1, spliced=cx.spliced, complex=cx,
        validated_radius=validated_radius)


def nccr_verdict(spec: ConeSpec, support=None) -> NccrVerdict:
    """Decide whether the summand support gives a noncommutative
    crepant resolution of the cone's semigroup ring.

    Complete support reduces to simpliciality, witnessed in the negative
    by a class with no zero cell.  Partial supports go through the
    spliced resolutions: a too-short resolution certifies a negative,
    full-length resolutions plus conic hom supports for every ordered
    pair certify a positive, anything else is inconclusive.  Only the
    support is gated: the rest reads its representatives.
    """
    all_reps = enumerate_classes(spec).reps
    reps = all_reps if support is None else _canonical_support(spec, support)
    if reps == all_reps:
        # The pattern's last codim is the class's pdim, and it has a zero
        # cell iff that is the rank: one pattern lookup per class, up to
        # the first class without one.
        witness = next((rep for rep in all_reps
                        if class_pattern(spec, rep)[-1][1] < spec.rank), None)
        if spec.simplicial != (witness is None):
            raise InternalInvariantError(
                f"simplicial cone with class {witness} without a zero cell"
                if spec.simplicial else
                "non-simplicial cone with all resolutions of full length")
        if witness is None:
            return NccrVerdict(
                verdict="NCCR", support=reps, complete=True, witness=None,
                reasons=("simplicial: every class has a zero cell",))
        return NccrVerdict(
            verdict="NotNCCR", support=reps, complete=True, witness=witness,
            reasons=(f"class {witness} has no zero cell, so its simple "
                     f"has projective dimension below the rank",))

    # the zero vector is the free class's representative
    if (0,) * len(spec.normals) not in reps:
        raise InputError("support must contain the free class")
    witness = None
    lengths = {}
    for rep in reps:
        try:
            cx = _resolution(spec, reps, rep)
        except SupportNotClosedError as err:
            verdict = "Inconclusive"
            reasons = (f"support not closed while resolving {rep}: "
                       f"{len(err.cells)} cells fall outside",)
            break
        lengths[rep] = len(cx.terms) - 1
    else:
        short = [rep for rep, n in lengths.items() if n < spec.rank]
        long_ = [rep for rep, n in lengths.items() if n > spec.rank]
        if short:
            verdict, witness = "NotNCCR", short[0]
            reasons = (f"resolution of {witness} has length "
                       f"{lengths[witness]} < rank {spec.rank}",)
        elif long_:
            verdict = "Inconclusive"
            reasons = (f"spliced resolution of {long_[0]} has length "
                       f"{lengths[long_[0]]} > rank {spec.rank}",)
        else:
            bad_pairs = [(a, b) for a in reps for b in reps
                         if not _conic_hom(spec, a, b)]
            verdict = "Inconclusive" if bad_pairs else "NCCR"
            reasons = tuple(
                f"hom support {a} -> {b} is not conic" for a, b in bad_pairs
            ) or ("all resolutions have full length and all hom supports "
                  "are conic",)
    return NccrVerdict(verdict=verdict, support=reps, complete=False,
                       witness=witness, reasons=reasons)
