"""The slice-exactness proof of the ``complexes`` docstring against its
oracles.

Every chamber-complex window is answered by that proof
(``complexes._acyclicity``) with no window pass, so its premise is
checked class by class by two certificates kept in the tests
(``certificate_oracle``), and its answers point by point:

- every class of 1/37(1,10), the reflexive polygons and the octahedron
  is certified by the double-description certificate
  (``certificate_oracle.exact``), its reports at radii 0-3 against every
  chamber (a seeded sample on the octahedron) equal the per-point
  reference ``acyclicity_oracle``, and its windows leave no
  ``complexes`` table in the store; the square, the cyclic quotient, the
  pentagon and the hexagon are checked in
  ``test_complexes.test_acyclicity_matches_per_point_oracle``;
- the regions ``certificate_oracle.regions`` walks are exactly the
  systems that Fourier-Motzkin elimination
  (``certificate_oracle.has_point``) finds a point of, over every subset
  A of T of every class of those cones, and both certificates certify
  every class;
- on pattern complexes with one differential sign flipped, one summand
  dropped or every degree past some k dropped, the certificate refuses
  exactly the complexes some window pass
  (``acyclicity_oracle.window_pass``) fails (or cannot rank); a certified one's passes give the reports that
  ``_acyclicity`` reads off the proof, and a refused one's the per-point
  reference's, failures included;
- on the seeded random cones of ``test_walk_contract`` every class is
  certified, as the proof says it must be, and the reports of class
  pairs and of their lattice translates at radii 0 and 1 equal the
  per-point reference's.
"""

import random
from itertools import combinations

import pytest

from conic import (
    ConicComplex,
    complexes,
    conic_complex,
    enumerate_classes,
    from_normals,
    from_primal_rays,
    verify_acyclicity,
)
from conic.cells import class_pattern
from conic.chambers import nhat
from conic.errors import InternalInvariantError
from conic.ratgeom import add

import certificate_oracle
from acyclicity_oracle import oracle_windows, slices_of, tail_sets, window_pass
from test_cli import C37
from test_complexes import complexes_tables
from test_walk import REFLEXIVE
from test_walk_contract import RANDOM_CONES

RADII = (0, 1, 2, 3)
# REFLEXIVE[14] is the pentagon fixture
POLYGONS = {f"reflexive_{i}": (3, [(x, y, 1) for x, y in poly])
            for i, poly in enumerate(REFLEXIVE) if i != 14}


def _cone(name):
    # a cone built here, so that no window of an earlier test is kept
    if name == "c37":
        return from_normals(*C37)
    return from_primal_rays(*POLYGONS[name])


def _bits(indices):
    return sum(1 << i for i in indices)


def _certified_reports(spec, a, cps, radii):
    # a is certified, and every report of a against cps at radii, read
    # off the proof, is the per-point reference's
    cx = conic_complex(spec, a)
    assert certificate_oracle.exact(spec, a, slices_of(cx)), a
    for b in cps:
        wants = oracle_windows(spec, cx, b, radii)
        for radius, want in zip(radii, wants):
            got = verify_acyclicity(spec, a, b, window=radius)
            assert got == want, (a, b, radius)


@pytest.mark.parametrize("name", ["c37", *POLYGONS])
def test_certified_reports_match_oracle(name):
    spec = _cone(name)
    reps = enumerate_classes(spec).reps
    for a in reps:
        _certified_reports(spec, a, reps, RADII)
    # the windows kept nothing: the differentials are conic_complex's
    assert complexes_tables(spec) == {complexes._differentials}


def test_certified_octahedron_reports_match_oracle_on_a_sample(octahedron):
    spec = from_normals(octahedron.rank, octahedron.normals)
    reps = enumerate_classes(spec).reps
    assert all(certificate_oracle.exact(
        spec, rep, slices_of(conic_complex(spec, rep))) for rep in reps)
    rng = random.Random(43)
    for a in rng.sample(reps, 6):
        _certified_reports(spec, a, [a, *rng.sample(reps, 2)], RADII)
    assert complexes_tables(spec) == {complexes._differentials}


def _fixture_cones(request):
    cones = {name: request.getfixturevalue(name)
             for name in ("square", "pentagon", "hexagon", "octahedron")}
    cones.update((name, _cone(name)) for name in ("c37", *POLYGONS))
    return cones


def test_regions_match_fourier_motzkin(request):
    # the region walk finds exactly the subsets A of T whose system has a
    # point, and R_{} reaches above c_j, j outside T, exactly when the
    # system with <x, n_j> > c_j has one
    points = empty = 0
    for name, spec in _fixture_cones(request).items():
        for rep in enumerate_classes(spec).reps:
            cx = conic_complex(spec, rep)
            tee = certificate_oracle.pinned(cx)
            walked = dict(certificate_oracle.regions(spec, rep, _bits(tee)))
            assert len(walked) <= 2 ** len(tee)
            for size in range(len(tee) + 1):
                for a in combinations(sorted(tee), size):
                    want = certificate_oracle.has_point(
                        spec, rep, set(a), tee - set(a))
                    assert (_bits(a) in walked) == want, (name, rep, a)
                    points += want
                    empty += not want
            for j, (n, cj) in enumerate(zip(spec.normals, rep)):
                if j not in tee:
                    want = certificate_oracle.has_point(spec, rep, {j}, tee)
                    got = any(sum(x * y for x, y in zip(ray, (*n, -cj))) > 0
                              for ray, _ in walked[0])
                    assert got == want, (name, rep, j)
                    points += want
                    empty += not want
    assert points > 1000 and empty > 1000


def test_certificate_matches_oracle(request):
    for name, spec in _fixture_cones(request).items():
        for rep in enumerate_classes(spec).reps:
            cx = conic_complex(spec, rep)
            assert certificate_oracle.exact(spec, rep, slices_of(cx)) is True
            assert certificate_oracle.certified(spec, cx), (name, rep)


def _flips(cx):
    # the complex with one nonzero differential entry negated, each entry
    for i, mat in enumerate(cx.mats):
        for r, row in enumerate(mat):
            for col, x in enumerate(row):
                if x:
                    rows = list(mat)
                    rows[r] = row[:col] + (-x,) + row[col + 1:]
                    mats = cx.mats[:i] + (tuple(rows),) + cx.mats[i + 1:]
                    yield ConicComplex(cx.chamber, cx.terms, cx.cells, mats)


def _drops(cx):
    # the complex with one summand removed, its row and column with it
    for deg, row in enumerate(cx.terms):
        for pos in range(len(row)):
            terms, cells, mats = list(cx.terms), list(cx.cells), list(cx.mats)
            terms[deg] = row[:pos] + row[pos + 1:]
            cells[deg] = cells[deg][:pos] + cells[deg][pos + 1:]
            if deg < len(mats):
                mats[deg] = mats[deg][:pos] + mats[deg][pos + 1:]
            if deg:
                mats[deg - 1] = tuple(r[:pos] + r[pos + 1:] for r in mats[deg - 1])
            yield ConicComplex(cx.chamber, tuple(terms), tuple(cells), tuple(mats))


def _truncations(cx):
    # the complex cut after each degree but the last: the open cell alone
    # first, where T is empty and R_{} reaches above every c_j
    for k in range(1, len(cx.terms)):
        yield ConicComplex(cx.chamber, cx.terms[:k], cx.cells[:k], cx.mats[:k - 1])


def _outcome(call):
    # the call's value, or None when it cannot rank a slice
    try:
        return call()
    except InternalInvariantError:
        return None


def _windows_pass(spec, a, reps, slices, radius):
    # whether every window at radius passes, None when one cannot rank
    table = tail_sets(spec, radius)
    reports = [_outcome(lambda: window_pass(spec, a, b, radius, slices, table))
               for b in reps]
    return None if None in reports else all(r.passed for r in reports)


def _window(spec, a, b, radius):
    # the window of representative a against representative b, read off
    # the proof, as the CLI asks it
    return complexes._acyclicity(spec, (a, a), (b, b), radius)


@pytest.mark.parametrize("mutate,counts", [
    (_flips, {(True, True, True): 104, (None, None, None): 68}),
    (_drops, {(False, False, False): 38, (False, False, None): 37,
              (None, False, None): 49}),
    (_truncations, {(False, False, False): 48}),
], ids=["flip", "drop", "truncate"])
def test_mutated_complexes_refused_iff_a_window_fails(pentagon, mutate, counts):
    reps = enumerate_classes(pentagon).reps
    seen = {}
    refused = []
    for a in reps:
        for cx in mutate(conic_complex(pentagon, a)):
            cert = _outcome(
                lambda: certificate_oracle.exact(pentagon, a, slices_of(cx)))
            oracle = _outcome(lambda: certificate_oracle.certified(pentagon, cx))
            at_two = _windows_pass(pentagon, a, reps, slices_of(cx), 2)
            seen[cert, oracle, at_two] = seen.get((cert, oracle, at_two), 0) + 1
            assert (cert is True) == (at_two is True), a
            if cert:
                assert all(_windows_pass(pentagon, a, reps, slices_of(cx), r)
                           for r in RADII)
                # an exact complex's passes give the proof's reports
                slices = slices_of(cx)
                for b in reps:
                    for radius in RADII:
                        assert (window_pass(pentagon, a, b, radius, slices,
                                            tail_sets(pentagon, radius))
                                == _window(pentagon, a, b, radius))
            elif cert is False:
                refused.append((a, cx))
    # (certificate, oracle certificate, every window at r = 2 passes),
    # None where a slice cannot be ranked: certified iff every window
    # passes, and refused where a window fails
    assert seen == counts
    # a refused complex's window passes, failures included, against the
    # per-point reference, on every fourth refused complex
    failures = 0
    for a, cx in refused[::4]:
        slices = slices_of(cx)
        for b in reps:
            wants = _outcome(lambda: oracle_windows(pentagon, cx, b, (1, 2)))
            for radius, want in zip((1, 2), wants or ()):
                got = window_pass(pentagon, a, b, radius, slices,
                                  tail_sets(pentagon, radius))
                assert got == want, (a, b, radius)
                failures += len(got.failures)
    assert bool(failures) == bool(refused)


@pytest.mark.parametrize("index", range(len(RANDOM_CONES)))
def test_every_class_of_a_random_cone_is_certified(index):
    # the classes of one pattern share one slices object and its ranks
    spec = from_normals(RANDOM_CONES[index].rank, RANDOM_CONES[index].normals)
    slices, refused = {}, []
    for rep in enumerate_classes(spec).reps:
        pattern = class_pattern(spec, rep)
        if pattern not in slices:
            slices[pattern] = slices_of(conic_complex(spec, rep))
        if not certificate_oracle.exact(spec, rep, slices[pattern]):
            refused.append(rep)
    assert refused == [], (spec.normals, refused)


def test_reports_match_oracle_on_random_cones():
    # a few pairs per cone: two classes, a class and itself, and lattice
    # translates of one class, whose witness m1 - m2 falls inside and
    # outside the window; radii 0 and 1 from one per-point walk
    rng = random.Random(46)
    hits = outside = other_class = 0
    for cone in RANDOM_CONES:
        spec = from_normals(cone.rank, cone.normals)
        reps = enumerate_classes(spec).reps
        a, b = rng.choice(reps), rng.choice(reps)
        m1, m2 = ([rng.randrange(-1, 2) for _ in range(spec.rank)]
                  for _ in range(2))
        c = add(a, nhat(spec, m1))
        for ch, cp in ((a, b), (b, b), (c, add(a, nhat(spec, m2))), (c, b)):
            wants = oracle_windows(spec, conic_complex(spec, ch), cp, (0, 1))
            for radius, want in zip((0, 1), wants):
                got = verify_acyclicity(spec, ch, cp, window=radius)
                assert got == want, (spec.normals, ch, cp, radius)
                hits += bool(got.hits)
                outside += got.witness is not None and not got.hits
                other_class += got.witness is None
    assert hits and outside and other_class
