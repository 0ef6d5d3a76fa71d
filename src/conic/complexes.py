"""Chain complexes of open conic summands and what they compute.

The complex of a chamber has one summand per cell, placed by
codimension, with differential entries given by incidence signs.  Its
degreewise slices against any other chamber are exact away from a single
distinguished slot, which is what makes the complexes projective
resolutions of the graded simples after applying the hom functor.  For
partial summand supports the excluded summands are spliced out through
their own complexes, with exact lift and correction blocks solved
degree by degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from . import ratgeom
from .cells import Cell, enumerate_cells, incidence_sign, is_facet_pair, open_conic
from .chambers import (
    canonical_class,
    enumerate_classes,
    iso_witness,
    nhat,
    require_chamber,
)
from .cone import ConeSpec
from .errors import (
    InputError,
    InternalInvariantError,
    SupportNotClosedError,
)
from .ratgeom import IntVec, add, intvec, sub


@dataclass(frozen=True)
class ConicComplex:
    """Cellular complex of one chamber.

    terms[i] lists the open conic ceiling vectors of the codimension-i
    cells; mats[i] is the integer matrix of the differential from
    degree i+1 to degree i (rows index terms[i], columns terms[i+1]).
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
    """Shape of the projective resolution of one graded simple."""

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
    for i in range(len(mats) - 1):
        a, b = mats[i], mats[i + 1]
        for r in range(len(a)):
            for c in range(len(b[0]) if b else 0):
                s = sum(a[r][k] * b[k][c] for k in range(len(b)))
                if s != 0:
                    raise InternalInvariantError(
                        f"differential does not square to zero at degree {i}")


@lru_cache(maxsize=None)
def conic_complex(spec: ConeSpec, c: IntVec) -> ConicComplex:
    """The cellular complex of a chamber, with d*d = 0 verified."""
    cells = enumerate_cells(spec, c)
    top = max(cell.codim for cell in cells)
    by_codim = tuple(
        tuple(cell for cell in cells if cell.codim == i) for i in range(top + 1))
    if len(by_codim[0]) != 1:
        raise InternalInvariantError("chamber does not have a unique interior cell")
    if open_conic(by_codim[0][0]) != c:
        raise InternalInvariantError("interior open conic differs from the chamber")
    terms = tuple(tuple(open_conic(cell) for cell in row) for row in by_codim)
    mats = []
    for i in range(top):
        outer_row = by_codim[i]
        inner_row = by_codim[i + 1]
        mat = []
        for outer in outer_row:
            row = []
            for inner in inner_row:
                if is_facet_pair(spec, inner, outer):
                    row.append(incidence_sign(spec, inner, outer))
                else:
                    row.append(0)
            mat.append(tuple(row))
        mats.append(tuple(mat))
    mats = tuple(mats)
    _check_d2(mats)
    return ConicComplex(chamber=c, terms=terms, cells=by_codim, mats=mats)


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


def graded_piece(spec: ConeSpec, cx, cp, m) -> ScalarComplex:
    """Slice of hom from the chamber module of cp into a complex.

    A summand survives at lattice point m exactly when the translated
    module of cp lands inside it, which is an entrywise ceiling
    comparison.  Kept columns only ever map to kept rows, so the slice
    really is a complex.
    """
    target = add(intvec(cp), nhat(spec, m))

    def kept(vec):
        return all(x >= y for x, y in zip(target, vec))

    keep = [
        tuple(j for j, vec in enumerate(row) if kept(vec)) for row in cx.terms]
    dims = tuple(len(k) for k in keep)
    mats = []
    for i in range(len(cx.mats)):
        mat = tuple(
            tuple(cx.mats[i][r][c] for c in keep[i + 1]) for r in keep[i])
        mats.append(mat)
    return ScalarComplex(dims=dims, mats=tuple(mats))


def default_window(c, cp) -> int:
    """Default acyclicity window radius for a chamber pair."""
    return 2 * (1 + max(abs(a - b) for a, b in zip(intvec(c), intvec(cp))))


def _verify(spec: ConeSpec, cx, cp: IntVec, radius: int) -> AcyclicityReport:
    c = cx.chamber
    witness = iso_witness(spec, c, cp)
    hits = []
    failures = []
    checked = 0
    for m in product(range(-radius, radius + 1), repeat=spec.rank):
        checked += 1
        target = add(cp, nhat(spec, m))
        sc = graded_piece(spec, cx, cp, m)
        ranks = homology_ranks(sc)
        want0 = 1 if target == c else 0
        for deg, got in enumerate(ranks):
            want = want0 if deg == 0 else 0
            if got != want:
                failures.append((m, deg, got, want))
        if target == c and ranks and ranks[0] == 1:
            hits.append(m)
    in_window = witness is not None and all(abs(x) <= radius for x in witness)
    expected_hits = 1 if in_window else 0
    passed = not failures and len(hits) == expected_hits
    return AcyclicityReport(
        chamber=c, other=cp, radius=radius, checked=checked,
        hits=tuple(hits), failures=tuple(failures),
        witness=witness, passed=passed)


def verify_acyclicity(spec: ConeSpec, c, cp, window: int | None = None) -> AcyclicityReport:
    """Check slice exactness of the chamber complex against one chamber.

    Every homology rank over the window must vanish except a single
    rank-one slot in degree zero at the lattice point translating cp
    onto c, when that point exists and lies inside the window.
    """
    cc = require_chamber(spec, c)
    cpp = require_chamber(spec, cp)
    radius = default_window(cc, cpp) if window is None else window
    if radius < 0:
        raise InputError("window radius must be nonnegative")
    return _verify(spec, conic_complex(spec, cc), cpp, radius)


def pdim_simple(spec: ConeSpec, c) -> int:
    """Projective dimension of the graded simple of a chamber: top codim."""
    cc = require_chamber(spec, c)
    return len(conic_complex(spec, cc).terms) - 1


def global_dimension(spec: ConeSpec) -> int:
    """Maximum projective dimension over all classes; must equal the rank."""
    classes = enumerate_classes(spec)
    top = max(pdim_simple(spec, rep) for rep in classes.reps)
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
    cc = require_chamber(spec, c)
    rep = canonical_class(spec, cp)
    cx = conic_complex(spec, cc)
    return tuple(
        sum(1 for vec in row if canonical_class(spec, vec) == rep)
        for row in cx.terms)


def smith_invariants(spec: ConeSpec, c) -> tuple[tuple[int, ...], ...]:
    """Elementary divisors of each differential of a chamber complex."""
    cc = require_chamber(spec, c)
    return tuple(
        ratgeom.smith_normal_form(m) for m in conic_complex(spec, cc).mats)


# --------------------------------------------------------------------------
# splice resolutions over a partial summand support


def _canonical_support(spec: ConeSpec, support) -> tuple[IntVec, ...]:
    reps = []
    for c in support:
        rep = canonical_class(spec, intvec(c))
        if rep not in reps:
            reps.append(rep)
    return tuple(sorted(reps))


def _solve_columns(nrows, ncols, prescribed, unknown, equations):
    """Fill unknown entries column by column from linear equations.

    prescribed: dict (row, col) -> Fraction for fixed entries.
    unknown: set of (row, col) positions allowed to be nonzero.
    equations: list of (coeff_by_row dict, rhs_fn(col) -> Fraction)
    pairs expressing sum_r coeff[r] * M[r][col] = rhs for every col.
    """
    mat = [[Fraction(0)] * ncols for _ in range(nrows)]
    for (r, c), val in prescribed.items():
        mat[r][c] = Fraction(val)
    for col in range(ncols):
        vars_ = sorted(r for (r, c) in unknown if c == col)
        if not vars_:
            continue
        rows = []
        rhss = []
        for coeff, rhs_fn in equations:
            const = sum(
                coeff.get(r, Fraction(0)) * mat[r][col]
                for r in range(nrows) if (r, col) not in unknown)
            rows.append([coeff.get(r, Fraction(0)) for r in vars_])
            rhss.append(Fraction(rhs_fn(col)) - const)
        sol = ratgeom.linear_solve(rows, rhss, len(vars_))
        if sol is None:
            raise InternalInvariantError("splice lift system is inconsistent")
        for r, val in zip(vars_, sol):
            mat[r][col] = val
    return tuple(tuple(row) for row in mat)


def _entrywise_geq(a, b) -> bool:
    return all(x >= y for x, y in zip(a, b))


def resolution(spec: ConeSpec, support, c, window: int | None = None) -> ResolutionReport:
    """Resolution of the simple of c over the given summand support.

    With complete support this is the chamber complex itself.  Summands
    whose class is outside the support are spliced out through their own
    complexes (one substitution round); if those complexes again contain
    classes outside the support, the support is not closed and the
    offending cells are reported.  Every spliced resolution is validated
    by window acyclicity before it is returned.
    """
    cc = require_chamber(spec, c)
    reps = _canonical_support(spec, support)
    sup = set(reps)
    if canonical_class(spec, cc) not in sup:
        raise InputError("the chamber's own class must belong to the support")
    K = conic_complex(spec, cc)
    excluded = []
    for i in range(1, len(K.terms)):
        for pos, vec in enumerate(K.terms[i]):
            if canonical_class(spec, vec) not in sup:
                excluded.append((i, pos, vec))
    if not excluded:
        mats = tuple(
            tuple(tuple(Fraction(x) for x in row) for row in m) for m in K.mats)
        origins = tuple(
            tuple(("kept", pos) for pos in range(len(row))) for row in K.terms)
        cx = SplicedComplex(
            chamber=cc, support=reps, terms=K.terms, origins=origins,
            mats=mats, spliced=False)
        return _report(spec, cx, reps, validated_radius=None)

    subs = []
    bad_cells = []
    for s_id, (k, pos, vec) in enumerate(excluded):
        Ks = conic_complex(spec, vec)
        for j in range(1, len(Ks.terms)):
            for p2, vec2 in enumerate(Ks.terms[j]):
                if canonical_class(spec, vec2) not in sup:
                    bad_cells.append(Ks.cells[j][p2])
        subs.append((s_id, k, pos, vec, Ks))
    if bad_cells:
        raise SupportNotClosedError(
            "support is not closed under one substitution round",
            cells=tuple(bad_cells))

    excl_set = {(k, pos) for k, pos, _ in excluded}
    top = len(K.terms) - 1
    for _, k, _, _, Ks in subs:
        top = max(top, k + len(Ks.terms) - 2)
    terms = []
    origins = []
    for i in range(top + 1):
        vecs = []
        tags = []
        if i < len(K.terms):
            for pos, vec in enumerate(K.terms[i]):
                if (i, pos) not in excl_set:
                    vecs.append(vec)
                    tags.append(("kept", pos))
        for s_id, k, pos, svec, Ks in subs:
            j = i - k + 1
            if 1 <= j < len(Ks.terms):
                for p2, vec2 in enumerate(Ks.terms[j]):
                    vecs.append(vec2)
                    tags.append(("sub", s_id, j, p2))
        terms.append(tuple(vecs))
        origins.append(tuple(tags))
    while terms and not terms[-1]:
        terms.pop()
        origins.pop()

    sub_by_id = {s_id: (k, pos, svec, Ks) for s_id, k, pos, svec, Ks in subs}

    def eps(s_id):
        Ks = sub_by_id[s_id][3]
        return Ks.mats[0][0]

    def kept_entry(i, rpos, cpos):
        return Fraction(K.mats[i][rpos][cpos])

    mats = []
    for i in range(len(terms) - 1):
        rows = origins[i]
        cols = origins[i + 1]
        prescribed = {}
        unknown = set()
        for ci, ct in enumerate(cols):
            for ri, rt in enumerate(rows):
                if rt[0] == "kept" and ct[0] == "kept":
                    if i < len(K.mats):
                        prescribed[(ri, ci)] = kept_entry(i, rt[1], ct[1])
                    else:
                        prescribed[(ri, ci)] = Fraction(0)
                elif rt[0] == "kept" and ct[0] == "sub":
                    _, s_id, j, p2 = ct
                    if j == 1:
                        k, pos, _, _ = (
                            sub_by_id[s_id][0], sub_by_id[s_id][1],
                            None, None)
                        # source degree of the U_1 block is its parent's
                        # degree k, so this is the differential out of k
                        prescribed[(ri, ci)] = (
                            kept_entry(i, rt[1], pos) * eps(s_id)[p2])
                    else:
                        prescribed[(ri, ci)] = Fraction(0)
                elif rt[0] == "sub" and ct[0] == "sub" and rt[1] == ct[1]:
                    _, s_id, j, p1 = rt
                    jc, p2 = ct[2], ct[3]
                    if jc != j + 1:
                        raise InternalInvariantError(
                            "misaligned splice block degrees")
                    Ks = sub_by_id[s_id][3]
                    prescribed[(ri, ci)] = Fraction(Ks.mats[j][p1][p2])
                else:
                    # lifts of kept columns and cross blocks between
                    # different substitutions: solved, if eligible
                    if _entrywise_geq(terms[i + 1][ci], terms[i][ri]):
                        unknown.add((ri, ci))
                    else:
                        prescribed[(ri, ci)] = Fraction(0)

        equations = []
        for s_id, k, pos, svec, Ks in subs:
            if k != i:
                continue
            coeff = {}
            for ri, rt in enumerate(rows):
                if rt[0] == "sub" and rt[1] == s_id and rt[2] == 1:
                    coeff[ri] = Fraction(eps(s_id)[rt[3]])

            def rhs(ci, s_pos=pos, deg=i):
                ct = cols[ci]
                if ct[0] == "kept":
                    return kept_entry(deg, s_pos, ct[1])
                _, s2, j2, p2 = ct
                if j2 == 1:
                    pos2 = sub_by_id[s2][1]
                    return kept_entry(deg, s_pos, pos2) * eps(s2)[p2]
                return Fraction(0)

            equations.append((coeff, rhs))
        if i >= 1:
            prev = mats[i - 1]
            for z in range(len(origins[i - 1])):
                coeff = {
                    mid: prev[z][mid]
                    for mid in range(len(rows)) if prev[z][mid]}
                if coeff:
                    equations.append((coeff, lambda ci: Fraction(0)))
        mats.append(_solve_columns(
            len(rows), len(cols), prescribed, unknown, equations))

    for i, mat in enumerate(mats):
        for ri in range(len(mat)):
            for ci in range(len(mat[ri]) if mat else 0):
                if mat[ri][ci] and not _entrywise_geq(
                        terms[i + 1][ci], terms[i][ri]):
                    raise InternalInvariantError(
                        "ineligible nonzero entry in spliced differential")
    _check_d2(mats)
    cx = SplicedComplex(
        chamber=cc, support=reps, terms=tuple(terms), origins=tuple(origins),
        mats=tuple(mats), spliced=True)

    radius = window
    if radius is None:
        radius = max(default_window(cc, rep) for rep in reps)
    for rep in reps:
        rpt = _verify(spec, cx, rep, radius)
        if not rpt.passed:
            raise InternalInvariantError(
                f"spliced complex fails acyclicity against {rep}: "
                f"{rpt.failures[:3]}")
    return _report(spec, cx, reps, validated_radius=radius)


def _report(spec: ConeSpec, cx: SplicedComplex, reps, validated_radius) -> ResolutionReport:
    shape = []
    for row in cx.terms:
        counts: dict[IntVec, int] = {}
        for vec in row:
            rep = canonical_class(spec, vec)
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
    pair certify a positive, anything else is inconclusive.
    """
    classes = enumerate_classes(spec)
    all_reps = classes.reps
    if support is None:
        reps = all_reps
    else:
        reps = _canonical_support(spec, support)
    complete = set(reps) == set(all_reps)
    if complete:
        if spec.simplicial:
            return NccrVerdict(
                verdict="NCCR", support=reps, complete=True, witness=None,
                reasons=("simplicial: every class has a zero cell",))
        witness = next(
            (rep for rep in all_reps
             if pdim_simple(spec, rep) < spec.rank), None)
        if witness is None:
            raise InternalInvariantError(
                "non-simplicial cone with all resolutions of full length")
        return NccrVerdict(
            verdict="NotNCCR", support=reps, complete=True, witness=witness,
            reasons=(f"class {witness} has no zero cell, so its simple "
                     f"has projective dimension below the rank",))

    free = canonical_class(spec, tuple(0 for _ in spec.normals))
    if free not in reps:
        raise InputError("support must contain the free class")
    reasons = []
    lengths = {}
    for rep in reps:
        try:
            rpt = resolution(spec, reps, rep)
        except SupportNotClosedError as err:
            reasons.append(
                f"support not closed while resolving {rep}: "
                f"{len(err.cells)} cells fall outside")
            return NccrVerdict(
                verdict="Inconclusive", support=reps, complete=False,
                witness=None, reasons=tuple(reasons))
        lengths[rep] = rpt.length
    short = [rep for rep, n in lengths.items() if n < spec.rank]
    if short:
        return NccrVerdict(
            verdict="NotNCCR", support=reps, complete=False,
            witness=short[0],
            reasons=(f"resolution of {short[0]} has length "
                     f"{lengths[short[0]]} < rank {spec.rank}",))
    long_ = [rep for rep, n in lengths.items() if n > spec.rank]
    if long_:
        return NccrVerdict(
            verdict="Inconclusive", support=reps, complete=False,
            witness=None,
            reasons=(f"spliced resolution of {long_[0]} has length "
                     f"{lengths[long_[0]]} > rank {spec.rank}",))
    from .homs import hom_is_conic
    bad_pairs = [
        (a, b) for a in reps for b in reps if not hom_is_conic(spec, a, b)]
    if bad_pairs:
        return NccrVerdict(
            verdict="Inconclusive", support=reps, complete=False,
            witness=None,
            reasons=tuple(
                f"hom support {a} -> {b} is not conic" for a, b in bad_pairs))
    return NccrVerdict(
        verdict="NCCR", support=reps, complete=False, witness=None,
        reasons=("all resolutions have full length and all hom supports "
                 "are conic",))
