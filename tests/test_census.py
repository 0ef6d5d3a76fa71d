"""Seeded censuses of cones over small lattice polytopes.

Rank 3: thirty cones over polygons with 3 to 6 vertices in [-2, 2]^2.
Rank 4: twenty cones over polytopes with 4 to 7 vertices in
{-1, 0, 1}^3; draws 0 and 3 are the cones B and A of ROADMAP's
baseline table.  Both are drawn from ``random.Random(7)``; a draw whose cone
equals an earlier one (same normals) is dropped, and a refused draw
(vertices in a hyperplane) is skipped.  On each cone the global
dimension is the rank, and every simple has projective dimension equal
to the rank exactly when the cone is simplicial, and the class count is
the arithmetic Tutte count of ``tutte_count``.  On rank-3 cones with
at most four facets the class count also agrees with the independent
box census; at rank 4 that census costs seconds per cone and is left
out.

Rank 5: the first sixteen cones over polytopes with 5 to 7 vertices in
{-1, 0, 1}^4.  Eleven of them have at most 10,000 classes (2 to 285,
and draw 9 with 9,680, whose walk takes about 2 s) and are checked
here.  The other five are left out: draws 2, 7, 14 and 15 have 20,046
to 241,941 classes and wait for a class budget that refuses them before
any walk; draw 6 is cone R5 of ROADMAP's baseline table, whose report
is pinned in ``test_patterns``.
"""

import random
from itertools import product

import pytest

from conic import enumerate_classes, from_primal_rays, global_dimension, pdim_simple
from conic.errors import InputError

from box_census import box_census
from tutte_count import class_count


def _census_cones(rank, coords, sizes, count, seed=7):
    rng = random.Random(seed)
    points = list(product(coords, repeat=rank - 1))
    cones, seen = [], set()
    while len(cones) < count:
        vertices = rng.sample(points, rng.randint(*sizes))
        try:
            spec = from_primal_rays(rank, [(*p, 1) for p in vertices])
        except InputError:
            continue
        if spec.normals not in seen:
            seen.add(spec.normals)
            cones.append(spec)
    return cones


CONES = _census_cones(3, range(-2, 3), (3, 6), 30)
RANK4_CONES = _census_cones(4, range(-1, 2), (4, 7), 20)
RANK5_CONES = _census_cones(5, range(-1, 2), (5, 7), 16)
RANK5_CHECKED = (0, 1, 3, 4, 5, 8, 9, 10, 11, 12, 13)


def _check_dimensions(spec, reps):
    assert len(reps) == class_count(spec.normals, spec.rank)
    assert global_dimension(spec) == spec.rank
    full = all(pdim_simple(spec, rep) == spec.rank for rep in reps)
    assert full == spec.simplicial


@pytest.mark.parametrize("index", range(len(CONES)))
def test_census_cone(index):
    spec = CONES[index]
    reps = enumerate_classes(spec).reps
    assert spec.rank == 3
    _check_dimensions(spec, reps)
    if len(spec.normals) <= 4:
        assert len(reps) == len(box_census(spec))


@pytest.mark.parametrize("index", range(len(RANK4_CONES)))
def test_rank4_census_cone(index):
    spec = RANK4_CONES[index]
    assert spec.rank == 4
    _check_dimensions(spec, enumerate_classes(spec).reps)


@pytest.mark.parametrize("index", RANK5_CHECKED)
def test_rank5_census_cone(index):
    spec = RANK5_CONES[index]
    reps = enumerate_classes(spec).reps
    assert spec.rank == 5 and len(reps) <= 10_000
    _check_dimensions(spec, reps)
