"""The one-sweep class walk against the two-step walk it replaced.

``cells.leaves`` cuts every node of the walk in one sweep; the oracle
(``walk_oracle.leaves``) cuts each child slab with two full
double-description steps.  Both must yield the same representatives, in
the same order, with the same tight mask sets, on the fixtures, cones A,
B and R5, the rank-4 census, the checked rank-5 draws, and a seeded set
of random cones of rank 2 to 4 with entries in [-3, 3], built from
primal rays and from normals.  On the random cones the class count must
also be the arithmetic Tutte count and the global dimension the rank.
"""

import random

import pytest

from conic import enumerate_classes, from_normals, from_primal_rays, global_dimension
from conic.cells import leaves
from conic.errors import InputError

import walk_oracle
from test_census import RANK4_CONES, RANK5_CHECKED, RANK5_CONES
from test_cli import CONE_A, CONE_B
from test_cone import FIXTURES
from test_patterns import CONE_R5
from tutte_count import class_count

# Random cones with more classes than this are skipped, to keep each
# walk to milliseconds; the count is read off the minors, before any walk.
RANDOM_CLASS_LIMIT = 400
# Draws of RANK5_CHECKED whose two walks take about a second or more.
RANK5_SLOW = {9}


def _same_leaves(spec):
    fresh = [from_normals(spec.rank, spec.normals) for _ in range(2)]
    pairs = list(leaves(fresh[0]))
    assert all(masks == tuple(sorted(set(masks))) for _, masks in pairs)
    walked = [(rep, frozenset(masks)) for rep, masks in pairs]
    assert walked == list(walk_oracle.leaves(fresh[1]))
    return walked


def _random_cones(seed=39, count=40):
    """count cones of rank 2 to 4, half from primal rays and half from
    normals, entries in [-3, 3]; refused draws and draws with more than
    RANDOM_CLASS_LIMIT classes are skipped."""
    rng = random.Random(seed)
    cones = []
    while len(cones) < count:
        d = rng.randint(2, 4)
        vectors = [tuple(rng.randint(-3, 3) for _ in range(d))
                   for _ in range(rng.randint(d, d + 3))]
        build = from_primal_rays if len(cones) % 2 else from_normals
        try:
            spec = build(d, vectors)
        except InputError:
            continue
        if class_count(spec.normals, d) <= RANDOM_CLASS_LIMIT:
            cones.append(spec)
    return cones


RANDOM_CONES = _random_cones()


@pytest.mark.parametrize("name", FIXTURES)
def test_walk_matches_oracle_on_fixtures(request, name):
    _same_leaves(request.getfixturevalue(name))


@pytest.mark.parametrize("cone", [
    CONE_A, CONE_B, pytest.param(CONE_R5, marks=pytest.mark.slow)],
    ids=["cone_a", "cone_b", "cone_r5"])
def test_walk_matches_oracle_on_baseline_cones(cone):
    _same_leaves(from_normals(*cone))


@pytest.mark.parametrize("index", range(len(RANK4_CONES)))
def test_walk_matches_oracle_on_rank4_census(index):
    _same_leaves(RANK4_CONES[index])


@pytest.mark.parametrize("index", [
    pytest.param(k, marks=pytest.mark.slow) if k in RANK5_SLOW else k
    for k in RANK5_CHECKED])
def test_walk_matches_oracle_on_rank5_draws(index):
    _same_leaves(RANK5_CONES[index])


def test_random_cones_were_drawn_from_both_sides():
    ranks = {spec.rank for spec in RANDOM_CONES}
    assert ranks == {2, 3, 4}
    assert any(spec.generators is None for spec in RANDOM_CONES)
    assert any(spec.generators is not None for spec in RANDOM_CONES)


@pytest.mark.parametrize("index", range(len(RANDOM_CONES)))
def test_walk_matches_oracle_on_random_cones(index):
    spec = RANDOM_CONES[index]
    walked = _same_leaves(spec)
    assert len(walked) == class_count(spec.normals, spec.rank)
    fresh = from_normals(spec.rank, spec.normals)
    assert len(enumerate_classes(fresh).reps) == len(walked)
    assert global_dimension(fresh) == spec.rank
