"""Reference splice, one block case per pair of origin tags.

``oracle_resolution`` is the splice construction as it stood before
``conic.complexes.resolution`` was rebuilt around the chain map to the
chamber complex: complete supports return early, and the spliced path
fixes, solves or zeroes each entry by the ("kept", ...)/("sub", ...)
tags of its row and column.  It is the reference the tests compare
``resolution`` with, reports, matrices and origins included.
``_solve_columns`` is the generic column solver it feeds, kept with it.
"""

from fractions import Fraction

from conic import ratgeom
from conic.chambers import canonical_class, require_chamber
from conic.complexes import (
    SplicedComplex,
    _canonical_support,
    _check_d2,
    _entrywise_geq,
    _report,
    _verify,
    _window_radius,
    conic_complex,
    default_window,
)
from conic.errors import InputError, InternalInvariantError, SupportNotClosedError


def _solve_columns(nrows, ncols, prescribed, unknown, equations):
    """Fill unknown entries column by column from linear equations.

    prescribed: dict (row, col) -> Fraction for fixed entries.
    unknown: set of (row, col) positions allowed to be nonzero; entries
    in neither are 0.
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


def oracle_resolution(spec, support, c, window=None):
    """Resolution of the simple of c over the given summand support.

    With complete support this is the chamber complex itself.  Summands
    whose class is outside the support are spliced out through their own
    complexes (one substitution round); if those complexes again contain
    classes outside the support, the support is not closed and the
    offending cells are reported.  Every spliced resolution is validated
    by window acyclicity before it is returned.
    """
    cc = require_chamber(spec, c)
    if window is not None:
        _window_radius(window)
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
