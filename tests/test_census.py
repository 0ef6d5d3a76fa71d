"""Seeded census of rank-3 cones over small lattice polygons.

Thirty cones over polygons with 3 to 6 vertices in [-2, 2]^2, drawn
from ``random.Random(7)``; a draw whose cone equals an earlier one
(same normals) is dropped, and a refused draw (collinear vertices) is
skipped.  On each cone the global dimension is the rank, every simple
has projective dimension equal to the rank exactly when the cone is
simplicial, and on cones with at most four facets the class count
agrees with the independent box census.
"""

import random
from itertools import product

import pytest

from conic import enumerate_classes, from_primal_rays, global_dimension, pdim_simple
from conic.errors import InputError

from box_census import box_census


def _census_cones(count=30, seed=7):
    rng = random.Random(seed)
    points = list(product(range(-2, 3), repeat=2))
    cones, seen = [], set()
    while len(cones) < count:
        vertices = rng.sample(points, rng.randint(3, 6))
        try:
            spec = from_primal_rays(3, [(x, y, 1) for x, y in vertices])
        except InputError:
            continue
        if spec.normals not in seen:
            seen.add(spec.normals)
            cones.append(spec)
    return cones


CONES = _census_cones()


@pytest.mark.parametrize("index", range(len(CONES)))
def test_census_cone(index):
    spec = CONES[index]
    reps = enumerate_classes(spec).reps
    assert global_dimension(spec) == spec.rank == 3
    full = all(pdim_simple(spec, rep) == spec.rank for rep in reps)
    assert full == spec.simplicial
    if len(spec.normals) <= 4:
        assert len(reps) == len(box_census(spec))
