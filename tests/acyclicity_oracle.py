"""Reference acyclicity check, one homology computation per window point.

``oracle_verify`` walks the window in ``product`` order and, at every
lattice point m, builds the graded piece of the complex against cp + m
and takes its homology ranks.  It keys nothing on survival masks, so it
is the reference the tests compare ``conic.complexes._verify`` with.
``oracle_windows`` gives the reports of several radii from one such
walk over the largest window: a smaller window's points are those of
the largest with every |m_j| <= r, in the same order.
"""

from itertools import product

from conic.chambers import iso_witness, nhat
from conic.complexes import AcyclicityReport, graded_piece, homology_ranks
from conic.ratgeom import add


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
