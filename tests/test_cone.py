import gc
import importlib
import itertools
import pkgutil
import random
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conic import (
    ConeSpec,
    dual_extreme_rays,
    from_dual_rays,
    from_normals,
    from_primal_rays,
    primal_generators,
    restrict_to_facet,
)
import conic
from conic import enumerate_classes, is_feasible, ratgeom
from conic.cli_io import analyze
from conic.cells import box_vertices
from conic.cone import content_hash, double_description
from conic.errors import InputError
from conic.ratgeom import (
    EQ, LE, dot, feasible, neg, primitive, rank, system)

import dd_oracle
from dd_oracle import tight_set
from lattice_oracle import rref_kernel_basis

# a rank-4 cone with five extreme rays and six facets
FIVE_RAYS = ((1, -1, -3, 2), (-2, 1, 0, 2), (0, -1, 3, 1), (-1, 2, -2, 3),
             (-3, -3, 0, 1))


def _in_cone_of(vec, others):
    """FM oracle: whether vec is a nonnegative combination of others."""
    if not others:
        return False
    k = len(others)
    rows = [(tuple(o[j] for o in others), EQ, x) for j, x in enumerate(vec)]
    rows += [(tuple(-1 if i == j else 0 for i in range(k)), LE, 0)
             for j in range(k)]
    return feasible(system(k, rows))


def _extremal(rays):
    """First occurrences that the other distinct rays do not generate."""
    return tuple(r for i, r in enumerate(rays)
                 if rays.index(r) == i
                 and not _in_cone_of(r, [o for o in rays if o != r]))


def test_quadric_from_dual_rays():
    spec = from_dual_rays(2, [(1, 1), (-1, 1)])
    assert set(spec.normals) == {(1, 1), (-1, 1)}
    assert spec.simplicial


def test_square_from_primal_rays():
    spec = from_primal_rays(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
    assert len(spec.normals) == 4
    assert not spec.simplicial
    # every input ray satisfies every normal
    for ray in [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]:
        assert all(dot(ray, n) >= 0 for n in spec.normals)
    assert spec.generators is not None
    assert set(spec.generators) == {(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)}


def test_rejects_unpointed():
    # a half-plane: dual rays containing a line
    with pytest.raises(InputError):
        from_dual_rays(2, [(1, 0), (-1, 0)])


def test_rejects_low_dimensional():
    with pytest.raises(InputError):
        from_primal_rays(2, [(1, 0), (2, 0)])


def test_rejects_redundant_normal():
    # (1, 1) is a positive combination of the axes
    with pytest.raises(InputError):
        from_normals(2, [(1, 0), (0, 1), (1, 1)])


def test_rejects_imprimitive_normal():
    with pytest.raises(InputError):
        from_normals(2, [(2, 0), (0, 1)])


def test_rejects_rank_mismatch():
    with pytest.raises(InputError):
        from_normals(2, [(1, 0, 0), (0, 1, 0)])


@pytest.mark.parametrize("build, noun",
                         [(from_dual_rays, "dual ray"), (from_primal_rays, "ray")])
def test_generator_refusals_name_the_ray(build, noun):
    with pytest.raises(InputError) as exc:
        build(2, [(1, 0), (0, 1, 1)])
    assert str(exc.value) == f"{noun} 1 has length 3, expected 2"
    with pytest.raises(InputError) as exc:
        build(2, [(1, 0), (0, 0)])
    assert str(exc.value) == f"{noun} 1 is zero"


def test_dual_round_trip_quadric():
    spec = from_normals(2, [(1, 1), (-1, 1)])
    rays = primal_generators(spec)
    back = from_primal_rays(2, rays)
    assert set(back.normals) == set(spec.normals)


def test_dual_round_trip_square(square):
    rays = primal_generators(square)
    assert len(rays) == 4
    back = from_primal_rays(3, rays)
    assert set(back.normals) == set(square.normals)


def test_dual_extreme_rays_orthant():
    rays = dual_extreme_rays(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 3)
    assert set(rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def _laplace_det(mat):
    if not mat:
        return 1
    return sum((-1) ** j * x * _laplace_det([row[:j] + row[j + 1:] for row in mat[1:]])
               for j, x in enumerate(mat[0]) if x)


def _brute_force_rays(rows, dim):
    """Oracle: the extreme rays of {x : <x, r> >= 0} are the nonzero
    feasible points tight on dim - 1 independent rows.  Those rows' kernel
    is spanned by their signed maximal minors, and the rows span exactly
    when some such kernel vector pairs nonzero with a row; None if not."""
    spans = False
    found = set()
    for sub in itertools.combinations(range(len(rows)), dim - 1):
        mat = [list(rows[k]) for k in sub]
        v = tuple((-1) ** j * _laplace_det([r[:j] + r[j + 1:] for r in mat])
                  for j in range(dim))
        spans = spans or any(dot(v, r) for r in rows)
        for w in (v, tuple(-x for x in v)):
            if any(w) and all(dot(w, r) >= 0 for r in rows):
                found.add(primitive(w))
    return found if spans else None


def test_double_description_matches_brute_force():
    # Seeded rows of rank 2-5 with 0-6 extra rows; some are repeated,
    # some are redundant sums, half lean towards (1, ..., 1) so the cone
    # has many rays.
    rng = random.Random(7)
    spanning = 0
    for case in range(150):
        dim = rng.randint(2, 5)
        rows = [tuple(rng.randint(-2, 2) for _ in range(dim))
                for _ in range(dim + rng.randint(0, 6))]
        if case % 2:
            rows = [r[:-1] + (2 + sum(map(abs, r)) - sum(r[:-1]),) for r in rows]
        if rng.random() < 0.5:
            rows.insert(rng.randrange(len(rows) + 1), rng.choice(rows))
        if rng.random() < 0.5:
            a, b = rng.sample(rows, 2)
            rows.append(tuple(x + y for x, y in zip(a, b)))
        rows = tuple(rows)
        want = _brute_force_rays(rows, dim)
        if want is None:
            with pytest.raises(InputError, match="rows do not span"):
                double_description(rows, dim)
            continue
        spanning += 1
        got = double_description(rows, dim)
        assert [ray for ray, _ in got] == sorted(want), rows
        for ray, tight in got:
            assert tight == sum(1 << k for k, r in enumerate(rows)
                                if dot(ray, r) == 0), rows
        assert _as_sets(got) == dd_oracle.double_description(rows, dim), rows
    assert spanning > 100


def _as_sets(passed):
    return tuple((ray, tight_set(mask)) for ray, mask in passed)


def _box_rows(spec, c):
    """The rows of the homogenised closed box of c: s >= 0, then the
    upper and the lower bound of each normal."""
    rows = [(0,) * spec.rank + (1,)]
    for n, ci in zip(spec.normals, c):
        rows += [neg(n) + (ci,), n + (1 - ci,)]
    return tuple(rows)


def _oracle_box(spec, c):
    """The oracle's box of c: its homogenised rows' rays, row 0 (s >= 0)
    shifted out of the tight sets."""
    want = dd_oracle.double_description(_box_rows(spec, c), spec.rank + 1)
    return tuple((ray, frozenset(k - 1 for k in tight if k)) for ray, tight in want)


FIXTURES = ("quadric", "square", "cyclic", "orthant2", "orthant3", "pentagon",
            "hexagon", "octahedron")


@pytest.mark.parametrize("name", FIXTURES)
def test_double_description_matches_frozenset_oracle(request, name):
    # both cone passes of the fixture, and the box of every class
    # against the oracle run on its homogenised rows with its own seeds
    spec = request.getfixturevalue(name)
    for rows in (spec.normals, primal_generators(spec)):
        assert (_as_sets(double_description(rows, spec.rank))
                == dd_oracle.double_description(rows, spec.rank))
    for rep in enumerate_classes(spec).reps:
        assert _as_sets(box_vertices(spec, rep)) == _oracle_box(spec, rep)


def test_box_vertices_off_the_representatives_match_frozenset_oracle(request):
    # boxes the walk never builds but the chamber gate does: c = rep +
    # s e_i - e_j for s = +-1, over every fixture's classes, a seeded
    # sample of them on the octahedron.  Some are empty, and some are
    # nonempty boxes of non-chambers, which are lower-dimensional: a
    # full-dimensional closed box holds an open one.
    rng = random.Random(7)
    kinds = set()
    for name in FIXTURES:
        spec = request.getfixturevalue(name)
        t = len(spec.normals)
        vectors = sorted({
            tuple(x + s * (k == i) - (k == j) for k, x in enumerate(rep))
            for rep in enumerate_classes(spec).reps
            for s in (1, -1) for i in range(t) for j in range(t)})
        if name == "octahedron":
            vectors = rng.sample(vectors, 1500)
        for c in vectors:
            got = box_vertices(spec, c)
            assert _as_sets(got) == _oracle_box(spec, c), c
            kinds.add((bool(got), is_feasible(spec, c)))
    assert kinds == {(False, False), (True, False), (True, True)}


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3)),
    min_size=3, max_size=6, unique=True))
def test_primal_rays_round_trip_random_3d(rays):
    # rays with positive last coordinate always span a pointed cone
    if rank(rays) < 3:
        return
    spec = from_primal_rays(3, rays)
    # validity implied by construction; all rays obey all normals
    for ray in rays:
        assert all(dot(ray, n) >= 0 for n in spec.normals)
    gens = primal_generators(spec)
    again = from_primal_rays(3, gens)
    assert set(again.normals) == set(spec.normals)


def test_content_hash_depends_on_order():
    a = from_normals(2, [(1, 1), (-1, 1)])
    b = from_normals(2, [(-1, 1), (1, 1)])
    assert content_hash(a) != content_hash(b)
    assert content_hash(a) == content_hash(from_normals(2, [(1, 1), (-1, 1)]))


def test_restrict_square_facet_zero(square):
    fr = restrict_to_facet(square, 0)
    assert fr.basis == ((0, 1, 0), (0, 0, 1))
    # raw functionals keep every other normal, in index order
    assert fr.functionals == ((1, (1, 0)), (2, (0, 1)), (3, (-1, 1)))
    # the middle one is redundant for the cleaned cone
    assert fr.cone.normals == ((1, 0), (-1, 1))
    assert fr.kept == ((1, 1), (3, 1))


def test_restrict_quadric_has_scale_two(quadric):
    fr = restrict_to_facet(quadric, 0)
    assert fr.basis == ((-1, 1),)
    assert fr.functionals == ((1, (2,)),)
    assert fr.cone.normals == ((1,),)
    assert fr.kept == ((1, 2),)


def test_restrict_cyclic_has_scale_three(cyclic):
    fr = restrict_to_facet(cyclic, 0)
    assert fr.functionals == ((1, (-3,)),)
    assert fr.kept[0][1] == 3


def test_restrict_orthant_is_clean(orthant3):
    fr = restrict_to_facet(orthant3, 0)
    assert fr.cone.normals == ((1, 0), (0, 1))
    assert all(scale == 1 for _, scale in fr.kept)


def test_restrict_rank_one_unsupported():
    spec = from_normals(1, [(1,)])
    with pytest.raises(InputError):
        restrict_to_facet(spec, 0)


def test_restrict_bad_index(square):
    with pytest.raises(InputError, match="out of range"):
        restrict_to_facet(square, 9)
    # an index that is not an int is refused, a bool included: True is
    # not facet 1
    for index in (1.0, "0", True, None):
        with pytest.raises(InputError, match="facet index must be an int"):
            restrict_to_facet(square, index)


def test_spec_is_hashable_and_frozen(square):
    d = {square: 1}
    assert d[square] == 1
    with pytest.raises(Exception):
        square.rank = 5


def _random_rays():
    return st.integers(2, 4).flatmap(lambda d: st.lists(
        st.tuples(*[st.integers(-3, 3)] * d).filter(any),
        min_size=1, max_size=5))


@settings(max_examples=200, deadline=None)
@given(_random_rays())
@example([(1, 0), (0, 1), (1, 1)])
@example([(1, 0), (0, 1), (1, 0)])
@example([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (0, 2, 0)])
@example([(1, 0), (-1, 0), (0, 1)])
@example([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)])
def test_kept_rays_and_refusals_match_fm_oracle(rays):
    d = len(rays[0])
    prims = [primitive(r) for r in rays]
    keep = _extremal(prims)
    # spanning rows that no point pairs >= 1 with are refused for their
    # dimension, each builder with its own message
    spans = rank(prims) == d
    interior = spans and feasible(
        system(d, [(tuple(-x for x in r), LE, -1) for r in prims]))
    for build, flat in (
            (from_normals, "cone is not full-dimensional"),
            (from_dual_rays, "cone is not full-dimensional: dual rays contain a line"),
            (from_primal_rays, "cone is not pointed")):
        try:
            build(d, prims)
        except InputError as err:
            assert (str(err) == flat) == (spans and not interior)
        else:
            assert interior
    try:
        spec = from_dual_rays(d, rays)
    except InputError:
        pass
    else:
        assert spec.normals == keep
        for i in range(len(spec.normals) if d > 1 else 0):
            fr = restrict_to_facet(spec, i)
            raw = [primitive(g) for _, g in fr.functionals]
            assert fr.cone.normals == _extremal(raw)
    try:
        spec = from_primal_rays(d, rays)
    except InputError:
        pass
    else:
        assert spec.generators == keep
    redundant = [i for i, n in enumerate(prims)
                 if _in_cone_of(n, prims[:i] + prims[i + 1:])]
    try:
        from_normals(d, prims)
    except InputError as err:
        if "redundant" in str(err):
            i = redundant[0]
            assert str(err) == f"normal {i} is redundant: {prims[i]}"
    else:
        assert not redundant


@pytest.mark.parametrize("t", [13, 20])
def test_polygon_cones_build_every_way(t):
    # cone over a t-gon with vertices on a parabola, plus an interior ray
    # and a repeated one
    rays = [(k, k * k, 1) for k in range(t)]
    spec = from_primal_rays(3, rays + [(2, 6, 1), (0, 0, 1)])
    assert spec.generators == tuple(rays)
    assert len(spec.normals) == t
    for ray in rays:
        assert rank([n for n in spec.normals if dot(n, ray) == 0]) == 2
    assert from_normals(3, spec.normals).normals == spec.normals
    inner = tuple(a + b for a, b in zip(spec.normals[0], spec.normals[1]))
    again = from_dual_rays(3, spec.normals + (inner,))
    assert again.normals == spec.normals
    with pytest.raises(InputError, match=f"normal {t} is redundant"):
        from_normals(3, spec.normals + (primitive(inner),))


def test_rank4_five_rays_build():
    spec = from_primal_rays(4, FIVE_RAYS)
    assert len(spec.normals) == 6
    assert spec.generators == FIVE_RAYS
    for ray in FIVE_RAYS:
        assert all(dot(ray, n) >= 0 for n in spec.normals)
    for n in spec.normals:
        assert rank([r for r in FIVE_RAYS if dot(n, r) == 0]) == 3


def _per_row_inverse(rows, dim):
    """A stand-in for ``ratgeom.base_inverse`` as the pass reads it: the
    greedy base from the ranks of row prefixes, and seed ray j as the
    kernel of the other base rows, oriented to pair positively with row
    j, one elimination per row.  The pass ignores D, so it is 1 here."""
    base = tuple(i for i in range(len(rows))
                 if rank(rows[:i + 1]) > rank(rows[:i]))
    rays = []
    for i in base:
        (ker,) = rref_kernel_basis([rows[k] for k in base if k != i], dim)
        rays.append(ker if dot(ker, rows[i]) > 0 else neg(ker))
    return base, 1, tuple(rays)


@pytest.mark.parametrize("name", [
    "quadric", "square", "cyclic", "orthant2", "orthant3", "pentagon",
    "hexagon", "octahedron", "gon13", "gon20", "five_rays"])
def test_inverse_seeds_match_per_row_seeds(request, name, monkeypatch):
    if name.startswith("gon"):
        t = int(name[3:])
        spec = from_primal_rays(3, [(k, k * k, 1) for k in range(t)])
        reps = [(0,) * t, (1,) * t]
    elif name == "five_rays":
        spec = from_primal_rays(4, FIVE_RAYS)
        reps = [(0,) * 6, (1, 0, 0, 1, 0, 0), (1,) * 6]
    else:
        spec = request.getfixturevalue(name)
        reps = enumerate_classes(spec).reps

    boxes = [box_vertices(spec, rep) for rep in reps]

    def passes():
        # the dual and primal passes of the cone, and each chamber's box
        # rows seeded in the pass itself, which read with row 0 (s >= 0)
        # shifted out are the chamber's box vertices
        box_passes = [
            tuple((ray, tight >> 1) for ray, tight in
                  double_description(_box_rows(spec, rep), spec.rank + 1))
            for rep in reps]
        assert box_passes == boxes
        return [double_description(spec.normals, spec.rank),
                double_description(primal_generators(spec), spec.rank),
                box_passes]

    got = passes()
    monkeypatch.setattr(ratgeom, "base_inverse", _per_row_inverse)
    assert got == passes()


def test_rejects_bool_and_non_int_entries():
    # True == 1 and hashes alike, but would print as true in reports
    for normals in (((True, 0), (0, 1)), ((1, 0), (0, False))):
        with pytest.raises(InputError, match="non-integer entries"):
            ConeSpec(2, normals)
    for gens in (((True, 0), (0, 1)), ((1, 0), (0, 1.0))):
        with pytest.raises(InputError, match="non-integer entries"):
            ConeSpec(2, ((1, 0), (0, 1)), generators=gens)
    assert from_normals(2, [(True, 0), (0, 1)]).normals == ((1, 0), (0, 1))
    # a rank of True would equal the rank-1 cone yet hash and print apart
    for rank, normals in ((True, [(1,)]), (2.0, [(1, 0), (0, 1)])):
        with pytest.raises(InputError, match="rank must be an int"):
            from_normals(rank, normals)
        with pytest.raises(InputError, match="rank must be an int"):
            ConeSpec(rank, tuple(normals))


def test_cone_spec_refusals():
    # refusals of a spec built directly, without a constructor
    for rank, normals, gens, message in (
            (0, ((1,),), None, "rank must be >= 1, got 0"),
            (2, (), None, "at least one facet normal is required"),
            (2, ((1, 0), (0, 0), (0, 1)), None, "normal 1 is zero"),
            (2, ((1, 0), (0, 1)), ((1, 0), (0, 1, 1)),
             "generator length does not match rank"),
            # a list would be refused as not primitive, or hashed with a
            # TypeError once accepted
            (2, [(1, 0), (0, 1)], None, "normals must be a tuple, got list"),
            (2, ([1, 0], [0, 1]), None, "normal 0 must be a tuple, got list"),
            (2, ((1, 0), (0, 1)), [(1, 0), (0, 1)],
             "generators must be a tuple, got list"),
            (2, ((1, 0), (0, 1)), ((1, 0), [0, 1]),
             "generator 1 must be a tuple, got list")):
        with pytest.raises(InputError) as exc:
            ConeSpec(rank, normals, generators=gens)
        assert str(exc.value) == message


def test_rejects_generators_that_are_not_the_extreme_rays():
    normals = ((1, 0), (0, 1))
    for gens in (((5, 7),), ((2, 0), (0, 1)), ((1, 0),), ((1, 0), (0, 1), (1, 0))):
        with pytest.raises(InputError, match="not the cone's extreme rays"):
            ConeSpec(2, normals, generators=gens)
    # any order of the true rays is accepted
    spec = from_primal_rays(4, FIVE_RAYS)
    for rank, normals, gens in ((2, normals, ((0, 1), (1, 0))),
                                (4, spec.normals, spec.generators),
                                (4, spec.normals, spec.generators[::-1])):
        assert primal_generators(ConeSpec(rank, normals, generators=gens)) == gens


SQUARE = ((1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1))


def test_analysis_leaves_the_cone_value_unchanged():
    spec, twin = from_normals(3, SQUARE), from_normals(3, SQUARE)
    before = (repr(spec), hash(spec), content_hash(spec))
    analyze(spec)
    assert spec._store and not twin._store
    assert (repr(spec), hash(spec), content_hash(spec)) == before
    assert spec == twin and hash(spec) == hash(twin)
    assert repr(spec) == repr(twin)


def test_analysis_state_dies_with_its_cone():
    # a cone no other test builds: a cache shared by equal cones would
    # hold whichever of them came first
    spec = from_normals(3, ((1, 0, 0), (0, 1, 0), (-1, 0, 5), (0, -1, 7)))
    analyze(spec)
    ref = weakref.ref(spec)
    del spec
    gc.collect()
    assert ref() is None


def test_no_module_level_caches():
    # per-cone state lives in the cone's store, not in functools caches
    modules = [conic] + [importlib.import_module(info.name) for info in
                         pkgutil.iter_modules(conic.__path__, "conic.")]
    for module in modules:
        for name, value in vars(module).items():
            assert not hasattr(value, "cache_info"), f"{module.__name__}.{name}"
