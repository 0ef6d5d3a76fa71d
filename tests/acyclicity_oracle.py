"""Reference acyclicity checks: one homology computation per window
point, and the window pass by regions of one survival mask.

``oracle_verify`` walks the window in ``product`` order and, at every
lattice point m, builds the graded piece of the complex against cp + m
and takes its homology ranks.  It keys nothing on survival masks, so it
is the reference the tests compare every other window answer with.
``oracle_windows`` gives the reports of several radii from one such
walk over the largest window: a smaller window's points are those of
the largest with every |m_j| <= r, in the same order.

``window_pass`` is the region pass that validated spliced resolutions
before the ``conic.complexes`` docstring proved their windows, with its
tail table (``tail_sets``), the slices it reads of a complex
(``slices_of``) and its mask ranks (``mask_ranks``).  It answers a
window of any complex whose summands lie at or above its chamber,
mutated ones included, far faster than ``oracle_verify``, so the tests
use it where the per-point walk is too slow: the certificates of
``certificate_oracle``, the mutated complexes of ``test_certificate``
and the reference splice of ``splice_oracle``.  The tests hold it to
``oracle_verify``.
"""

from itertools import product

from conic.cells import _preimage
from conic.chambers import iso_witness, nhat
from conic.complexes import (
    AcyclicityReport,
    ScalarComplex,
    _slice,
    graded_piece,
    homology_ranks,
)
from conic.ratgeom import add, sub


def oracle_windows(spec, cx, cp, radii):
    top = max(radii)
    c = cx.chamber
    witness = iso_witness(spec, c, cp)
    points = []
    for m in product(range(-top, top + 1), repeat=spec.rank):
        target = add(cp, nhat(spec, m))
        ranks = homology_ranks(graded_piece(spec, cx, cp, m))
        points.append((m, target == c, ranks))
    reports = []
    for radius in radii:
        hits = []
        failures = []
        checked = 0
        for m, at_c, ranks in points:
            if max(map(abs, m)) > radius:
                continue
            checked += 1
            want0 = 1 if at_c else 0
            for deg, got in enumerate(ranks):
                want = want0 if deg == 0 else 0
                if got != want:
                    failures.append((m, deg, got, want))
            if at_c and ranks and ranks[0] == 1:
                hits.append(m)
        in_window = witness is not None and all(abs(x) <= radius for x in witness)
        expected_hits = 1 if in_window else 0
        passed = not failures and len(hits) == expected_hits
        reports.append(AcyclicityReport(
            chamber=c, other=cp, radius=radius, checked=checked,
            hits=tuple(hits), failures=tuple(failures),
            witness=witness, passed=passed))
    return reports


def oracle_verify(spec, cx, cp, radius):
    return oracle_windows(spec, cx, cp, (radius,))[0]


def mask_ranks(full, mask):
    """Homology ranks of the slice of a whole complex (a ScalarComplex)
    keeping the summands whose bits are set in mask, numbered degree by
    degree."""
    keep = []
    for dim in full.dims:
        keep.append(tuple(j for j in range(dim) if mask >> j & 1))
        mask >>= dim
    return homology_ranks(_slice(full, keep))


def slices_of(cx):
    """What ``window_pass`` reads of a complex: the complex whole as a
    scalar complex; for each normal, the summands' distinct steps above
    the chamber's ceiling in ascending order, each with the bitmask of
    the summands (degree by degree) at or below it; and a table survival
    mask -> homology ranks, which the passes on it fill."""
    steps = [sub(vec, cx.chamber) for row in cx.terms for vec in row]
    levels = tuple(
        tuple((top, sum(1 << bit for bit, x in enumerate(col) if x <= top))
              for top in sorted(set(col)))
        for col in zip(*steps))
    return ScalarComplex(tuple(map(len, cx.terms)), cx.mats), levels, {}


def tail_sets(spec, radius):
    """For each normal n, the bitsets of the window's tail points t (last
    d - 1 coordinates, bit k the k-th in ``product`` order) with
    <t, n[1:]> + reach >= u for u <= 2 reach + 1, reach = r sum |n[1:]|.
    A level that no pairing hits holds the object of the level above,
    so a normal keeps one bitset per distinct pairing, plus the empty
    top: at most min(2 reach + 2, (2r + 1)^(d - 1) + 1) of them, and one
    reference per level."""
    steps = range(-radius, radius + 1)
    table = []
    for n in spec.normals:
        reach = radius * sum(map(abs, n[1:]))
        pairs = [reach]
        for a in n[1:]:
            pairs = [p + x * a for p in pairs for x in steps]
        sets = [0] * (2 * reach + 2)
        for k, p in enumerate(pairs):
            sets[p] |= 1 << k
        for u in range(2 * reach, -1, -1):
            sets[u] = sets[u] | sets[u + 1] if sets[u] else sets[u + 1]
        table.append(tuple(sets))
    return tuple(table)


def window_pass(spec, c, cp, radius, slices, table):
    """Window acyclicity against the chamber cp of the complex of the
    chamber c whose ``slices_of`` are given, by a pass over the window
    of the radius, given its tail table (``tail_sets``).  It reads the
    complex's survival masks region by region, so it checks any complex
    whose summands lie at or above its chamber: a chamber complex, a
    spliced resolution or a mutated one, which is what the tests need
    it for, next to the per-point ``oracle_verify``.

    Summand vec survives at m iff h = (<m, n_i>)_i >= vec - cp entrywise,
    that is h >= (vec - c) - (cp - c): translating both chambers by -c
    changes no survival mask and no witness, so the slices hold the
    summands' steps vec - c, and along normal i the survivors step up
    at their distinct values.  A slab, the points (x0, *t) with one x0,
    starts as one region of every tail point t and every summand and is
    split normal by normal: a step's points are two reads of the tail
    table and an AND-NOT, a region keeps the summands that survive on
    it, regions whose mask empties are dropped and equal masks merged;
    the points left over have the empty mask.  So a slab costs per
    region, not per point.  For normal i the table keeps one bitset of
    at most (2r + 1)^(d - 1) bits per distinct tail pairing, at most
    min(2r * sum_{j>=1} |n_ij| + 2, (2r + 1)^(d - 1) + 1) of them, and
    one reference per level.

    The graded piece reads m only through the kept index sets, so the
    scalar complex and its homology ranks are a function of the mask;
    the slices' rank table maps each mask met to its ranks, so ranks
    carry over between the windows that share one slices object.  The
    pairing map is injective, so h == c - cp holds exactly at the
    witness that ``cells._preimage`` reads off the class reduction of
    c - cp, which is then the one point that wants a rank-one degree
    zero.  A point is visited on its own, in ascending order, only if it
    is the witness or its region's mask has nonzero homology, so a
    passing window costs no per-point work.
    """
    r, side, d = radius, 2 * radius + 1, spec.rank
    full, levels, ranks_of = slices
    offset = sub(cp, c)
    witness = _preimage(spec, sub(c, cp))
    every_point = table[0][0]
    every_summand = (1 << sum(full.dims)) - 1
    w0 = wk = None
    if witness is not None and all(abs(x) <= r for x in witness):
        w0, wk = witness[0], 0
        for x in witness[1:]:
            wk = wk * side + x + r
    hits, failures = [], []
    # per normal: n[0], its sets, their last index, levels as indices at x0 = 0
    columns = [(n[0], sets, len(sets) - 1,
                [(step + (len(sets) - 2) // 2 - ci, below)
                 for step, below in reversed(steps)])
               for n, ci, sets, steps in zip(spec.normals, offset, table, levels)]
    for x0 in range(-r, r + 1):
        regions = {every_summand: every_point}
        for n0, sets, top, steps in columns:
            split, above = {}, 0
            for u, below in steps:
                u -= x0 * n0
                here = every_point if u <= 0 else sets[u] if u <= top else 0
                if here == above:
                    continue
                if below == every_summand and here == every_point:
                    # every point survives the top level: nothing is cut
                    split = regions
                    break
                band = here ^ above
                for mask, points in regions.items():
                    if (got := points & band) and (key := mask & below):
                        split[key] = split.get(key, 0) | got
                above = here
            regions = split
        # the regions are disjoint; the points outside them keep nothing
        rest = every_point - sum(regions.values())
        if rest:
            regions[0] = rest
        visit = {}
        for mask, points in regions.items():
            ranks = ranks_of.get(mask)
            if ranks is None:
                ranks = ranks_of[mask] = mask_ranks(full, mask)
            if not any(ranks):
                points = points & 1 << wk if x0 == w0 else 0
            while points:
                low = points & -points
                visit[low.bit_length() - 1] = ranks
                points ^= low
        for k in sorted(visit):
            hit = x0 == w0 and k == wk
            ranks = visit[k]
            tail_point = []
            for _ in range(d - 1):
                k, x = divmod(k, side)
                tail_point.append(x - r)
            m = (x0, *reversed(tail_point))
            for deg, got in enumerate(ranks):
                want = 1 if hit and deg == 0 else 0
                if got != want:
                    failures.append((m, deg, got, want))
            if hit and ranks[0] == 1:
                hits.append(m)
    return AcyclicityReport(
        chamber=c, other=cp, radius=radius, checked=side ** d,
        hits=tuple(hits), failures=tuple(failures), witness=witness,
        passed=not failures and len(hits) == (0 if w0 is None else 1))
