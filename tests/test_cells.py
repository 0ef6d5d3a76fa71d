import math
from fractions import Fraction
from itertools import product

import pytest

from conic import (
    cell_census,
    enumerate_cells,
    from_normals,
    from_primal_rays,
    has_zero_cell,
    incidence_sign,
    is_facet_pair,
    open_conic,
)
from conic import cells as cells_module, complexes
from conic.cells import Cell, cell_witnesses, class_pattern
from conic.complexes import conic_complex
from conic.chambers import (
    chamber_of, chamber_witness, enumerate_classes, is_feasible, nhat, pairings)
from conic.errors import InputError
from conic.ratgeom import add, dot, rank

from cell_oracle import _frame, frame_det_sign, oracle_cells, oracle_sign
from test_walk import _cones


def test_censuses(quadric, square, cyclic, orthant3):
    assert cell_census(quadric, (0, 0)) == {0: 1, 1: 2, 2: 1}
    assert cell_census(square, (0, 0, 0, 0)) == {0: 1, 1: 4, 2: 4, 3: 1}
    assert cell_census(square, (0, 0, 0, -1)) == {0: 1, 1: 2, 2: 1}
    assert cell_census(square, (0, 0, 0, 1)) == {0: 1, 1: 2, 2: 1}
    for rep in enumerate_classes(cyclic).reps:
        assert cell_census(cyclic, rep) == {0: 1, 1: 2, 2: 1}
    assert cell_census(orthant3, (0, 0, 0)) == {0: 1, 1: 3, 2: 3, 3: 1}


def test_interior_cell_open_conic_is_the_chamber(square):
    cells = enumerate_cells(square, (0, 0, 0, 0))
    interior = [cell for cell in cells if cell.codim == 0]
    assert len(interior) == 1
    assert interior[0].omega == (0, 1, 2, 3)
    assert open_conic(interior[0]) == (0, 0, 0, 0)


def test_open_conic_bumps_pinned_coordinates(square):
    cells = enumerate_cells(square, (0, 0, 0, 0))
    by_omega = {cell.omega: cell for cell in cells}
    assert open_conic(by_omega[(0, 1, 2)]) == (0, 0, 0, 1)
    assert open_conic(by_omega[(1, 2, 3)]) == (1, 0, 0, 0)
    # top cell is fully pinned
    assert open_conic(by_omega[()]) == (1, 1, 1, 1)


def test_codim_is_rank_of_pinned_normals(square):
    for cell in enumerate_cells(square, (0, 0, 0, 0)):
        pinned = [square.normals[i] for i in range(4) if i not in cell.omega]
        assert cell.codim == (rank(pinned) if pinned else 0)


SMALL_CONES = ("quadric", "square", "cyclic", "orthant2", "orthant3",
               "pentagon", "hexagon")


def _octahedron_classes(octahedron):
    # one class of each of the five cell censuses
    by_census = {}
    for rep in enumerate_classes(octahedron).reps:
        census = tuple(sorted(cell_census(octahedron, rep).items()))
        by_census.setdefault(census, rep)
    return sorted(by_census.values())


def _cones_and_classes(request, name):
    spec = request.getfixturevalue(name)
    if name == "octahedron":
        return spec, _octahedron_classes(spec)
    return spec, enumerate_classes(spec).reps


@pytest.mark.parametrize("name", SMALL_CONES + ("octahedron",))
def test_cells_match_subset_oracle(request, name):
    # every class of the small cones, one class per census shape of the
    # octahedron, and a lattice translate of each: the (omega, codim) list
    # equals the 2^t FM walk, and the cells belong to the vector asked for
    spec, reps = _cones_and_classes(request, name)
    shift = nhat(spec, [(-1) ** k * (k + 1) for k in range(spec.rank)])
    for rep in reps:
        for c in (rep, add(rep, shift)):
            cells = enumerate_cells(spec, c)
            assert [cell.chamber for cell in cells] == [c] * len(cells)
            got = [(cell.omega, cell.codim) for cell in cells]
            assert got == oracle_cells(spec, c), c


def test_cell_witnesses_lie_in_their_cell(request):
    for name in SMALL_CONES + ("octahedron",):
        spec, reps = _cones_and_classes(request, name)
        for c in reps:
            cells = enumerate_cells(spec, c)
            for cell, witness in zip(cells, cell_witnesses(spec, c)):
                prs = pairings(spec, witness)
                for i, (p, ci) in enumerate(zip(prs, c)):
                    if i in cell.omega:
                        assert ci - 1 < p < ci
                    else:
                        assert p == ci


@pytest.mark.parametrize("name", SMALL_CONES + ("octahedron",))
def test_differentials_match_witness_sign_oracle(request, name):
    # every entry of every differential: the frame-only sign on facet
    # pairs, 0 elsewhere, against the sign read from FM cell points
    spec, reps = _cones_and_classes(request, name)
    for rep in reps:
        cx = conic_complex(spec, rep)
        for k, mat in enumerate(cx.mats):
            for outer, row in zip(cx.cells[k], mat):
                for inner, entry in zip(cx.cells[k + 1], row):
                    want = (oracle_sign(spec, inner, outer)
                            if is_facet_pair(spec, inner, outer) else 0)
                    assert entry == want, (rep, inner.omega, outer.omega)


@pytest.mark.parametrize("name", SMALL_CONES + ("octahedron",))
def test_incidence_sign_matches_witness_oracle(request, name):
    # every facet pair of every class, asked directly: the per-cone sign
    # table answers later chambers from pairs first met in earlier ones
    spec = request.getfixturevalue(name)
    for rep in enumerate_classes(spec).reps:
        cells = enumerate_cells(spec, rep)
        for outer in cells:
            for inner in cells:
                if is_facet_pair(spec, inner, outer):
                    assert (incidence_sign(spec, inner, outer)
                            == oracle_sign(spec, inner, outer)), (rep, inner, outer)


def _cyclic_quotients():
    # every 1/r(1, a) with r < 40
    return {f"1/{r}(1,{a})": from_normals(2, [(0, 1), (r, -a)])
            for r in range(2, 40) for a in range(1, r) if math.gcd(a, r) == 1}


def test_incidence_sign_matches_frame_determinant(request):
    # the parity against the determinant of the two orientation frames it
    # replaced, on every facet pair of every cell pattern of the fixtures,
    # both censuses, the reflexive polygons, cones A and B and the cyclic
    # quotients
    cones = _cones(request) | _cyclic_quotients()
    for name, spec in cones.items():
        reps = enumerate_classes(spec).reps
        patterns = {class_pattern(spec, rep): rep for rep in reps}
        pairs = 0
        for pattern, rep in patterns.items():
            cells = [Cell(rep, omega, codim) for omega, codim in pattern]
            for outer in cells:
                for inner in cells:
                    if is_facet_pair(spec, inner, outer):
                        pairs += 1
                        assert (incidence_sign(spec, inner, outer)
                                == frame_det_sign(spec, inner.omega, outer.omega)), (
                            name, inner.omega, outer.omega)
        assert pairs, name


def test_sign_table_holds_one_entry_per_omega_pair(monkeypatch):
    # a hexagon no other test has analysed, so its store starts empty
    spec = from_primal_rays(
        3, [(1, 0, 1), (0, 1, 1), (-1, 1, 1), (-1, 0, 1), (0, -1, 1),
            (1, -1, 1)])
    calls = []
    real = cells_module._sign

    def counted(spec, inner, outer):
        calls.append((inner, outer))
        return real(spec, inner, outer)

    monkeypatch.setattr(complexes, "_sign", counted)
    for rep in enumerate_classes(spec).reps:
        conic_complex(spec, rep)
    table = spec._store[real]
    assert set(table) == set(calls)
    assert len(table) < len(calls)


def test_incidence_sign_rejects_non_facet_pairs(square):
    by_omega = {cell.omega: cell
                for cell in enumerate_cells(square, (0, 0, 0, 0))}
    interior, edge = by_omega[(0, 1, 2, 3)], by_omega[(0, 1)]
    for inner, outer in [(edge, interior), (interior, edge),
                         (interior, interior)]:
        with pytest.raises(InputError):
            incidence_sign(square, inner, outer)


def test_cells_partition_the_chamber(quadric, square):
    # every sampled chamber point lies in exactly one cell
    for spec, c, radius in [
            (quadric, (0, 0), 1), (square, (0, 0, 0, 0), 1)]:
        cells = enumerate_cells(spec, c)
        step = Fraction(1, 3)
        grid = [Fraction(k) * step
                for k in range(-3 * radius, 3 * radius + 1)]
        for point in product(grid, repeat=spec.rank):
            if chamber_of(spec, point) != c:
                continue
            prs = pairings(spec, point)
            pinned = tuple(
                i for i, (p, ci) in enumerate(zip(prs, c)) if p == ci)
            matches = [cell for cell in cells
                       if tuple(sorted(set(range(len(c))) - set(cell.omega)))
                       == pinned]
            assert len(matches) == 1


def test_zero_cells_track_simpliciality(quadric, square, cyclic, orthant3):
    for spec in (quadric, cyclic, orthant3):
        for rep in enumerate_classes(spec).reps:
            assert has_zero_cell(spec, rep)
    flags = {rep: has_zero_cell(square, rep)
             for rep in enumerate_classes(square).reps}
    assert flags == {(0, 0, 0, -1): False,
                     (0, 0, 0, 0): True,
                     (0, 0, 0, 1): False}


def test_orientation_frame_spans_the_direction_space(square):
    for cell in enumerate_cells(square, (0, 0, 0, 0)):
        frame = _frame(square, cell.omega)
        assert len(frame) == square.rank - cell.codim
        pinned = [square.normals[i] for i in range(4) if i not in cell.omega]
        for v in frame:
            assert all(dot(v, n) == 0 for n in pinned)


def test_incidence_sign_pinned_half_line():
    # one-dimensional cone: the point cell sits on the right end of the
    # open interval (-1, 0), so its induced sign is +1
    spec = from_normals(1, [(1,)])
    cells = enumerate_cells(spec, (0,))
    interior = next(c for c in cells if c.codim == 0)
    point = next(c for c in cells if c.codim == 1)
    assert is_facet_pair(spec, point, interior)
    assert incidence_sign(spec, point, interior) == 1


def test_facet_pair_needs_codim_step_and_omega_nesting(square):
    cells = enumerate_cells(square, (0, 0, 0, 0))
    by_omega = {cell.omega: cell for cell in cells}
    interior = by_omega[(0, 1, 2, 3)]
    wall = by_omega[(0, 1, 2)]
    edge = by_omega[(0, 1)]
    assert is_facet_pair(square, wall, interior)
    assert is_facet_pair(square, edge, wall)
    assert not is_facet_pair(square, edge, interior)  # codim gap 2
    assert not is_facet_pair(square, wall, wall)


def test_facet_pair_rejects_mixed_chambers(square):
    a = enumerate_cells(square, (0, 0, 0, 0))[0]
    b = enumerate_cells(square, (0, 0, 0, -1))[0]
    with pytest.raises(InputError):
        is_facet_pair(square, b, a)


@pytest.mark.parametrize("t", [13, 20])
def test_free_chamber_of_polygon_cones(t):
    # cones over t-gons with vertices on a parabola; t normals, which is
    # past what a walk over the 2^t pinned sets can afford
    spec = from_primal_rays(3, [(k, k * k, 1) for k in range(t)])
    assert len(spec.normals) == t
    zero = (0,) * t
    assert cell_census(spec, zero) == {0: 1, 1: t, 2: t, 3: 1}
    assert is_feasible(spec, zero)
    assert chamber_of(spec, chamber_witness(spec, zero)) == zero


def test_infeasible_chamber_rejected(square):
    with pytest.raises(InputError):
        enumerate_cells(square, (0, 0, 2, 0))
