"""Reference acyclicity check, one homology computation per window point.

``oracle_verify`` walks the window in ``product`` order and, at every
lattice point m, builds the graded piece of the complex against cp + m
and takes its homology ranks.  It keys nothing on survival masks, so it
is the reference the tests compare ``conic.complexes._verify`` with.
"""

from itertools import product

from conic.chambers import iso_witness, nhat
from conic.complexes import AcyclicityReport, graded_piece, homology_ranks
from conic.ratgeom import add


def oracle_verify(spec, cx, cp, radius):
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
