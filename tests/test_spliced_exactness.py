"""Spliced resolutions against the proof that they have their chamber
complexes' windows.

The ``conic.complexes`` docstring proves that a resolution F spliced
from the chamber complex K of c over a partial support maps onto K by a
quasi-isomorphism on every slice against a chamber of the support, as
long as a solved entry between two spliced blocks only goes from the
block of the higher K-degree (the degree in K of the summand it
replaces) to the lower.  No window of F is checked at run time.  The
sweep: every support of the square; every support of the pentagon and
the hexagon that misses two classes; seeded closed supports of the
octahedron and of the random rank-3 cones of ``test_walk_contract``.

- Every cross-block entry of every spliced resolution goes down in
  K-degree, read off ``SplicedComplex.origins``.
- Every spliced resolution's windows equal, point by point
  (``acyclicity_oracle.oracle_windows``), the reports read off K's
  exactness proof (``verify_acyclicity``): against every chamber of the
  support on the square, and against its own and one seeded other
  chamber elsewhere, on a seeded sample of the pentagon's and hexagon's
  supports with cross-block entries and on every other closed support.
  Radii are 0-3 on rank 3 and 0-1 on the octahedron, where radius 2
  against every chamber of a support would pass 10^5 points.
- No verdict is refused for its window, and the verdicts hash to the
  digest recorded at the last commit that validated spliced
  resolutions by a window pass, over the supports it decided.
"""

import hashlib
import random
from functools import lru_cache
from itertools import combinations

from conic import (
    complexes,
    enumerate_classes,
    from_normals,
    from_primal_rays,
    nccr_verdict,
    verify_acyclicity,
)

from acyclicity_oracle import oracle_windows
from test_walk_contract import RANDOM_CONES

SQUARE = from_normals(3, [(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1)])
PENTAGON = ((-2, -1, 1), (-1, -1, 1), (1, 0, 1), (1, 1, 1), (-1, 0, 1))
HEXAGON = ((1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, 0, 1), (0, -1, 1), (1, -1, 1))
OCTAHEDRON = ((1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 0, 1), (0, -1, 0, 1),
              (0, 0, 1, 1), (0, 0, -1, 1))


def _others(spec):
    # the free class and the other class representatives
    free = (0,) * len(spec.normals)
    return free, [rep for rep in enumerate_classes(spec).reps if rep != free]


def _closed_supports(spec, rng, count, most_dropped):
    """count seeded supports holding the free class, each missing 1 to
    most_dropped other classes, whose verdict is not refused for being
    unclosed under one substitution round."""
    free, rest = _others(spec)
    found = []
    for _ in range(200 if rest else 0):
        drop = set(rng.sample(rest, rng.randint(1, min(most_dropped, len(rest)))))
        support = (free, *(rep for rep in rest if rep not in drop))
        if support not in found and not _unclosed(nccr_verdict(spec, support)):
            found.append(support)
            if len(found) == count:
                break
    return found


def _unclosed(verdict):
    return verdict.reasons[0].startswith("support not closed")


@lru_cache(maxsize=None)
def _cases():
    """(cone name, cone, support) triples of the sweep, in a fixed order."""
    free, rest = _others(SQUARE)
    cases = [("square", SQUARE, (free, *sub)) for k in range(len(rest) + 1)
             for sub in combinations(rest, k)]
    for name, rays in (("pentagon", PENTAGON), ("hexagon", HEXAGON)):
        spec = from_primal_rays(3, rays)
        free, rest = _others(spec)
        cases += [(name, spec, (free, *(rep for rep in rest if rep not in drop)))
                  for drop in combinations(rest, 2)]
    octahedron = from_primal_rays(4, OCTAHEDRON)
    cases += [("octahedron", octahedron, s)
              for s in _closed_supports(octahedron, random.Random(47), 2, 2)]
    for k, cone in enumerate(RANDOM_CONES):
        if cone.rank == 3:
            spec = from_normals(3, cone.normals)
            cases += [(f"random {k}", spec, s) for s in
                      _closed_supports(spec, random.Random(47 + k), 1, 7)]
    return tuple(cases)


@lru_cache(maxsize=None)
def _sweep():
    """(cone name, cone, verdict, its spliced resolutions by chamber) for
    each case of the sweep."""
    out = []
    for name, spec, support in _cases():
        v = nccr_verdict(spec, support)
        # the verdict's own spliced complexes, kept per support and chamber
        spliced = {} if _unclosed(v) else {
            own: cx for own in v.support
            if (cx := complexes._resolution(spec, v.support, own)).spliced}
        out.append((name, spec, v, spliced))
    return tuple(out)


def _k_degree(tag, degree):
    # the degree in K of the summand that a spliced block replaces, from
    # the origin tag of one of its summands at F-degree degree
    return degree - tag[2] + 1


def _cross_entries(cx):
    # (row tag, its K-degree, column tag, its K-degree) of every nonzero
    # entry between two spliced blocks
    return [(row, _k_degree(row, i), col, _k_degree(col, i + 1))
            for i, mat in enumerate(cx.mats)
            for row, entries in zip(cx.origins[i], mat)
            for col, x in zip(cx.origins[i + 1], entries)
            if x and "kept" not in (row[0], col[0]) and row[1] != col[1]]


# sha256 of the sweep's verdicts, recorded when each spliced resolution
# was validated by a window pass at radius 2(1 + max |c - rep|), over the
# supports that pass decided; it refused the cases listed, whose windows
# passed the budget of 10^6 points
VERDICTS_DIGEST = (
    "327ac8a9312c58c54e8b4e222834933cd25f58695f6c82fd8060f503a608e6fe")
REFUSED_BEFORE = (390, 391)


def test_sweep_verdicts_are_decided_as_before():
    lines = [repr((v.verdict, v.support, v.complete, v.witness, v.reasons))
             for index, (_, _, v, _) in enumerate(_sweep())
             if index not in REFUSED_BEFORE]
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == VERDICTS_DIGEST


def test_cross_block_entries_go_down_in_k_degree():
    resolutions = with_cross = 0
    for _, spec, v, spliced in _sweep():
        for own, cx in spliced.items():
            resolutions += 1
            cross = _cross_entries(cx)
            with_cross += bool(cross)
            for row, row_degree, col, col_degree in cross:
                assert col_degree > row_degree, (spec.normals, v.support, own,
                                                 row, col)
    assert resolutions > 1000 and with_cross >= 10


def test_spliced_windows_match_the_per_point_oracle():
    rng = random.Random(47)
    by_cone = {}
    for name, spec, v, spliced in _sweep():
        if spliced:
            by_cone.setdefault(name, []).append((spec, v, spliced))
    sample = []
    for name, cases in by_cone.items():
        if name in ("pentagon", "hexagon"):
            sample += rng.sample([case for case in cases if any(
                map(_cross_entries, case[2].values()))], 2)
        else:
            sample += cases
    for spec, v, spliced in sample:
        radii = (0, 1, 2, 3) if spec.rank == 3 else (0, 1)
        for own, cx in spliced.items():
            others = [rep for rep in v.support if rep != own]
            chambers = v.support if spec is SQUARE else [own, rng.choice(others)]
            for cp in chambers:
                assert oracle_windows(spec, cx, cp, radii) == [
                    verify_acyclicity(spec, own, cp, window=r) for r in radii
                ], (spec.normals, v.support, own, cp)
