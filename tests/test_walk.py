"""The class walk against its oracles.

``cells.class_walk`` cuts the base parallelepipeds
(``cells.leaves``).  Its class sets and the cells it hands off are
checked against the breadth-first search it replaced (``bfs_oracle``),
run on a freshly built cone so that every class there reads its own box
(``cells.box_vertices``); its leaves' tight masks against those boxes
and the frozenset double description (``dd_oracle``); its roots against
the HNF box of the pairing lattice, so that every leaf is already its
class's canonical representative; and its class counts against the
arithmetic Tutte polynomial (``tutte_count``), which uses no chamber at
all.
"""

import math
import re

import pytest

from conic import cells, chambers, complexes, from_normals, from_primal_rays, ratgeom
from conic.cells import _base_cube, _lattice_pivots, box_vertices, class_pattern
from conic.errors import InternalInvariantError
from conic.ratgeom import reduce_by_pivots

import bfs_oracle
import dd_oracle
from test_census import CONES, RANK4_CONES
from test_cli import CONE_A, CONE_B
from test_cone import FIVE_RAYS, FIXTURES, _box_rows
from tutte_count import class_count

# The 16 reflexive polygons, as vertex lists; each cone is over the
# polygon at height 1.
REFLEXIVE = (
    ((-2, -1), (2, -1), (0, 1)),
    ((-2, -1), (0, -1), (1, 2)),
    ((-2, -1), (1, -1), (1, 2)),
    ((-2, -1), (0, -1), (1, 1)),
    ((-2, -1), (1, 0), (1, 1)),
    ((-2, -1), (-1, -1), (1, 0), (1, 2)),
    ((-2, -1), (0, -1), (1, 0), (1, 2)),
    ((-2, -1), (-1, -1), (2, 1), (0, 1)),
    ((-2, -1), (0, -1), (2, 1), (0, 1)),
    ((-2, -1), (-1, -1), (1, 0), (0, 1)),
    ((-2, -1), (-1, -1), (2, 1), (-1, 0)),
    ((-2, -1), (-1, -1), (2, 1), (1, 1)),
    ((-2, -1), (-1, -1), (1, 0), (1, 1), (0, 1)),
    ((-2, -1), (-1, -1), (1, 0), (2, 1), (0, 1)),
    ((-2, -1), (-1, -1), (1, 0), (1, 1), (-1, 0)),
    ((-2, -1), (-1, -1), (1, 0), (2, 1), (1, 1), (-1, 0)),
)


def _fresh(spec):
    return from_normals(spec.rank, spec.normals)


def _cones(request):
    """Every fixture, both censuses, the reflexive polygons and cones A
    and B, by name."""
    cones = {name: request.getfixturevalue(name) for name in FIXTURES}
    cones.update((f"rank3_{i}", spec) for i, spec in enumerate(CONES))
    cones.update((f"rank4_{i}", spec) for i, spec in enumerate(RANK4_CONES))
    cones.update(
        (f"reflexive_{i}", from_primal_rays(3, [(x, y, 1) for x, y in poly]))
        for i, poly in enumerate(REFLEXIVE))
    cones["cone_a"] = from_normals(*CONE_A)
    cones["cone_b"] = from_normals(*CONE_B)
    return cones


def test_walk_matches_bfs_oracle(request):
    # the same classes, and the cells handed off by the walk equal those
    # of each class's own box
    for name, spec in _cones(request).items():
        walked, searched = _fresh(spec), _fresh(spec)
        reps = chambers.enumerate_classes(walked).reps
        assert reps == bfs_oracle.enumerate_classes(searched), name
        assert walked._store[class_pattern] == searched._store[class_pattern], name


def test_class_count_matches_tutte_formula(request):
    for name, spec in _cones(request).items():
        assert (len(chambers.enumerate_classes(spec).reps)
                == class_count(spec.normals, spec.rank)), name


def test_five_ray_cone_count_from_the_formula_alone():
    spec = from_primal_rays(4, FIVE_RAYS)
    assert class_count(spec.normals, spec.rank) == 4_691_052


def test_base_is_the_lattice_pivot_columns(request):
    # the greedy base is where the pairing lattice's HNF has its pivots,
    # and the pivots multiply to |det N_B|: one HNF box point per root cube
    for name, spec in _cones(request).items():
        base, det_b = _base_cube(spec)[:2]
        pivots = _lattice_pivots(spec)
        assert tuple(base) == tuple(col for col, _, _ in pivots), name
        assert math.prod(piv for _, piv, _ in pivots) == det_b, name


def test_every_leaf_is_canonical(request):
    for name, spec in _cones(request).items():
        fresh = _fresh(spec)
        pivots = _lattice_pivots(fresh)
        for c, _ in cells.leaves(fresh):
            assert reduce_by_pivots(c, pivots) == c, (name, c)


def test_walk_makes_no_hnf_and_no_reduction(request, monkeypatch):
    # with the pairing lattice's HNF kept, the walk's leaves are the
    # representatives: no second HNF and no reduction per leaf
    calls = []
    for fn in ("hermite_normal_form", "reduce_by_pivots"):
        real = getattr(ratgeom, fn)
        monkeypatch.setattr(ratgeom, fn, lambda *a, real=real, fn=fn:
                            calls.append(fn) or real(*a))
    for name, spec in _cones(request).items():
        fresh = _fresh(spec)
        _lattice_pivots(fresh)
        calls.clear()
        chambers.enumerate_classes(fresh)
        assert calls == [], name


@pytest.mark.parametrize("name", FIXTURES)
def test_leaf_masks_match_box_pass_and_dd_oracle(request, name):
    spec = request.getfixturevalue(name)
    fresh = _fresh(spec)
    leaves = list(cells.leaves(fresh))
    assert len(leaves) == len(chambers.enumerate_classes(spec).reps)
    for c, masks in leaves:
        assert masks == tuple(sorted({tight for _, tight in box_vertices(fresh, c)})), c
        want = dd_oracle.double_description(_box_rows(fresh, c), spec.rank + 1)
        assert set(masks) == {sum(1 << k - 1 for k in tight if k) for _, tight in want}, c


def test_cells_asked_before_the_walk_are_kept(square):
    # a pattern read off a representative's own box stays in the table,
    # and is the object every class with that pattern holds
    fresh = _fresh(square)
    early = class_pattern(fresh, (0, 0, 0, 1))
    reps = chambers.enumerate_classes(fresh).reps
    assert class_pattern(fresh, (0, 0, 0, 1)) is early
    assert all(class_pattern(fresh, rep) is early
               for rep in reps if class_pattern(fresh, rep) == early)


@pytest.mark.parametrize("cone", [CONE_A, CONE_B], ids=["cone_a", "cone_b"])
def test_one_object_per_cell_pattern(cone):
    # the walk keeps its mask sets to itself: the store holds each
    # distinct pattern once, and every class holds that object
    spec = from_normals(*cone)
    chambers.enumerate_classes(spec)
    held = list(spec._store[class_pattern].values())
    assert len({id(p) for p in held}) == len(set(held))
    interned = spec._store[cells._interned].values()
    assert {id(p) for p in held} == {id(p) for p in interned}
    assert cells._pattern not in spec._store


def test_repeated_leaf_is_an_internal_error(square, monkeypatch):
    leaves = list(cells.leaves(square))
    monkeypatch.setattr(cells, "leaves", lambda spec: leaves + leaves[:1])
    with pytest.raises(InternalInvariantError, match="reached twice"):
        chambers.enumerate_classes(_fresh(square))


def test_missing_free_class_is_an_internal_error(square, monkeypatch):
    leaves = [leaf for leaf in cells.leaves(square) if any(leaf[0])]
    monkeypatch.setattr(cells, "leaves", lambda spec: leaves)
    with pytest.raises(InternalInvariantError, match="free class is not reached"):
        chambers.enumerate_classes(_fresh(square))


def test_foreign_pattern_kept_before_the_walk_is_an_internal_error(square):
    # another class's pattern kept under a representative before the
    # walk is an internal error naming the class, not kept silently
    reps = chambers.enumerate_classes(square).reps
    rep, other = reps[0], reps[1]
    assert class_pattern(square, rep) != class_pattern(square, other)
    fresh = _fresh(square)
    class_pattern.keep(fresh, (rep,), class_pattern(square, other))
    with pytest.raises(InternalInvariantError,
                       match=re.escape(f"class {rep} has a kept pattern")):
        chambers.enumerate_classes(fresh)


@pytest.mark.parametrize("r,a", [(3, 2), (7, 3), (12, 5), (30, 11)])
def test_cyclic_classes_share_one_pattern(r, a, monkeypatch):
    # 1/r(1, a) is r uncut root cubes, all with one cell pattern, held
    # as one object: one differential, checked once, and one rank table
    # for every class
    checked = []
    check = complexes._check_d2
    monkeypatch.setattr(complexes, "_check_d2",
                        lambda mats: checked.append(mats) or check(mats))
    spec = from_normals(2, [(0, 1), (r, -a)])
    reps = chambers.enumerate_classes(spec).reps
    assert len(reps) == r
    assert len({id(class_pattern(spec, rep)) for rep in reps}) == 1
    assert len({id(complexes._pattern_slices(spec, class_pattern(spec, rep)))
                for rep in reps}) == 1
    mats = {id(complexes.conic_complex(spec, rep).mats) for rep in reps}
    assert len(mats) == 1 and len(checked) == 1
    assert len(spec._store[complexes._differentials]) == 1
    assert len({complexes.smith_invariants(spec, rep) for rep in reps}) == 1
