import hashlib
import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conic import from_normals, render_svg_2d, svg
from conic.chambers import canonical_class, chamber_of, chamber_witness
from conic.cli_io import main
from conic.errors import (
    InputError, InternalInvariantError, UnsupportedOperationError)
from conic.svg import (
    SVG_BUDGET, _class_color, _strip_pieces, _window_corners, drawn_chambers)

from svg_oracle import oracle_drawn_chambers, oracle_render_svg_2d

WINDOW = (Fraction(-2), Fraction(2), Fraction(-2), Fraction(2))


def fills(doc):
    return re.findall(r'<polygon points="[^"]*" fill="(hsl[^"]*)"', doc)


def area2(poly):
    return sum(poly[i][0] * poly[(i + 1) % len(poly)][1]
               - poly[(i + 1) % len(poly)][0] * poly[i][1]
               for i in range(len(poly)))


def test_byte_determinism(quadric):
    assert render_svg_2d(quadric, WINDOW) == render_svg_2d(quadric, WINDOW)


def test_two_alternating_colors(quadric):
    doc = render_svg_2d(quadric, WINDOW)
    assert len(set(fills(doc))) == 2


def test_orthant_single_color(orthant2):
    doc = render_svg_2d(orthant2, (-1, 1, -1, 1))
    assert len(set(fills(doc))) == 1


def test_cyclic_window_three_colors(cyclic):
    doc = render_svg_2d(cyclic, (-1, 0, -1, 0))
    assert len(set(fills(doc))) == 3


def test_drawn_chambers_classify_to_their_color(quadric, cyclic):
    for spec in (quadric, cyclic):
        for c, poly in drawn_chambers(spec, WINDOW):
            w = chamber_witness(spec, c)
            assert chamber_of(spec, w) == c
            rep = canonical_class(spec, c)
            assert _class_color(rep) == _class_color(
                canonical_class(spec, chamber_of(spec, w)))


def test_polygons_are_counterclockwise_and_inside(quadric):
    for c, poly in drawn_chambers(quadric, WINDOW):
        assert area2(poly) > 0
        for x, y in poly:
            assert -2 <= x <= 2
            assert -2 <= y <= 2


def test_lattice_dots_and_orientation(quadric):
    doc = render_svg_2d(quadric, WINDOW)
    assert doc.count("<circle") == 25  # 5 x 5 integer points
    assert 'viewBox="-2.000 -2.000 4.000 4.000"' in doc
    assert "-0.000" not in doc


def test_rank_requirement(square):
    for draw in (render_svg_2d, drawn_chambers):
        with pytest.raises(UnsupportedOperationError):
            draw(square, WINDOW)


def test_drawn_chambers_checks_its_window(quadric):
    # the checks of render_svg_2d: an empty or reversed window, a
    # coordinate that is not a rational, a window past the budget
    for window in ((1, -1, -1, 1), (0, 0, 0, 0), ("a", 1, -1, 1),
                   (0, 10 ** 4, 0, 10 ** 4)):
        with pytest.raises(InputError):
            drawn_chambers(quadric, window)


def test_window_validation(quadric):
    with pytest.raises(InputError):
        render_svg_2d(quadric, (1, -1, 0, 2))
    with pytest.raises(InputError):
        render_svg_2d(quadric, (0, 1, 0))
    for bad in ("a", "1/0", None):
        with pytest.raises(InputError):
            render_svg_2d(quadric, (bad, 1, -1, 1))
    # exact, but printed as floats: a bound or a side past the float range
    for window in (("0", "1e400", "0", "1"), (-10**308, 10**308, 0, 1)):
        with pytest.raises(InputError):
            render_svg_2d(quadric, window)
    # past the work budget: side 200 needs 201^2 lattice points plus
    # (1 + 802)^2 pieces, which is admitted, side 10^4 far more
    assert SVG_BUDGET == 10 ** 6
    render_svg_2d(quadric, (0, 1, 0, 1))
    with pytest.raises(InputError, match=f"past the budget of {SVG_BUDGET}"):
        render_svg_2d(quadric, (0, 10 ** 4, 0, 10 ** 4))


CYCLIC_13 = [(r, a) for r in range(2, 14) for a in range(1, r)
             if math.gcd(a, r) == 1]
TILING_WINDOWS = [(-1, 1, -2, 1),
                  (Fraction(-3, 2), Fraction(5, 3), Fraction(-1, 2), Fraction(7, 4))]
# one chamber closure with int corners far from the origin, where a float
# centroid cannot order them
FAR_WINDOW = (10**17, 10**17 + 1, 10**17, 10**17 + 1)


@pytest.mark.parametrize(
    "cone,window",
    [(cone, w) for cone in ["quadric", "orthant2", "cyclic"] + CYCLIC_13
     for w in TILING_WINDOWS] + [("orthant2", FAR_WINDOW)],
    ids=str)
def test_drawn_chambers_tile_the_window(cone, window, request):
    # Chamber closures cover the plane with disjoint interiors, so strictly
    # convex pieces inside their closures whose areas add up to the window
    # are exactly the clipped closures: none is missing or cut short.
    if isinstance(cone, str):
        spec = request.getfixturevalue(cone)
    else:
        spec = from_normals(2, [(0, 1), (cone[0], -cone[1])])
    x0, x1, y0, y1 = window
    drawn = drawn_chambers(spec, window)
    assert [c for c, _ in drawn] == sorted({c for c, _ in drawn})
    assert sum(area2(poly) for _, poly in drawn) == 2 * (x1 - x0) * (y1 - y0)
    for c, poly in drawn:
        for i, p in enumerate(poly):
            q, s = poly[i - 1], poly[(i + 1) % len(poly)]
            assert (p[0] - q[0]) * (s[1] - p[1]) - (p[1] - q[1]) * (s[0] - p[0]) > 0
            assert all(type(v) in (int, Fraction) for v in p)
            assert x0 <= p[0] <= x1 and y0 <= p[1] <= y1
            for n, ci in zip(spec.normals, c):
                assert ci - 1 <= n[0] * p[0] + n[1] * p[1] <= ci


# sha256 of the SVG bytes, recorded with the all-pairs line intersection
# renderer that the strip clip replaced
PINNED_SVG = [
    ([(1, 1), (-1, 1)], (-2, 2, -2, 2),
     "1d9a83db0d1cee017679f3eddca7a0f17f1e1490efcd4df7c22a1941cbd3e109"),
    ([(0, 1), (3, -2)], (Fraction(-3, 2), Fraction(5, 3), Fraction(-1, 2), Fraction(7, 4)),
     "1dd292b347fb6b6e1cb515c0125d757d04b30a2ccace33b9562d97d54a9bbdf0"),
    ([(0, 1), (7, -3)], (-1, 1, -1, 1),
     "d767f769c4dde17403914708297363fa28c458b506ffd2c3a3e5d344eeeb480a"),
    ([(2, 1), (-1, 2)], (0, 3, -1, 2),
     "38957d52f3c9e00c89a3b6facd38561de43a850438f57af225d903b2a174f3ac"),
    # recorded with the Fraction strip clip of tests/svg_oracle.py
    ([(0, 1), (37, -10)], (-1, 1, -1, 1),
     "fa45302442a40b607f570b377ee00de2579474cff52bed761c852c7524977db6"),
    ([(0, 1), (16, -13)], (-1, 1, -1, 1),
     "6178a36f7f0325e744937959e427186e73ac313d5e5fc360942b374da5c3e871"),
    ([(0, 1), (3, -2)], (10**17 - Fraction(3, 2), 10**17 + Fraction(5, 3),
                         10**17 - Fraction(1, 2), 10**17 + Fraction(7, 4)),
     "af9090313a9c7ee308367c3bb80a26309b0c0e43048d0ab7593518ef4b300454"),
    # recorded with the (X, Y, W) triple sweep; grid denominators M of
    # 7,232,400 and 1,073
    ([(5, -7), (3, 4)], (Fraction(-7, 3), Fraction(11, 5), Fraction(-13, 4), Fraction(9, 7)),
     "bbcf7f657e15839a72413f95cb10cb1622fd2e369554cc8b1288b1847be6631d"),
    ([(0, 1), (37, -29)], (-1, 1, -1, 1),
     "8483e85e7e2b565b378dc0bee9e8f5e947465f557d31c2974949e227a9dc22d9"),
]


@pytest.mark.parametrize("normals,window,digest", PINNED_SVG)
def test_svg_bytes_pinned(normals, window, digest):
    doc = render_svg_2d(from_normals(2, normals), window)
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def test_cut_off_the_grid_exits_2(tmp_path, capsys, monkeypatch):
    # On 1/3(1,2) over [-1, 1]^2 the grid is M = 6.  Over half of it,
    # the level 3x - 2y = 4 meets the edge x = 1 at y = -1/2, which is
    # not a multiple of 1/3, so the strip cut has a remainder.
    grid = svg._grid
    monkeypatch.setattr(svg, "_grid", lambda spec, window: grid(spec, window) // 2)
    with pytest.raises(InternalInvariantError, match="off the grid"):
        render_svg_2d(from_normals(2, [(0, 1), (3, -2)]), (-1, 1, -1, 1))
    path = tmp_path / "c3.json"
    path.write_text('{"rank":2,"normals":[[0,1],[3,-2]]}')
    assert main(["svg", "--window=-1,1,-1,1", "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal invariant violated: a strip cut is off the grid")


def _whole_to_int(v):
    return v.numerator if v.denominator == 1 else v


primitive2 = st.tuples(st.integers(-6, 6), st.integers(-6, 6)).filter(
    lambda n: math.gcd(*n) == 1)
window_coord = st.fractions(-5, 5, max_denominator=12)
window_side = st.fractions(Fraction(1, 12), 4, max_denominator=12)
window_offset = st.one_of(st.just(0), st.integers(-10**18, 10**18))
# two normals and a window (x0, y0, width, height) moved by (ox, oy)
oracle_cases = (primitive2, primitive2, window_coord, window_coord,
                window_side, window_side, window_offset, window_offset)


# a large grid denominator: M = 7,232,400
LARGE_GRID_EXAMPLE = ((5, -7), (3, 4), Fraction(-7, 3), Fraction(-13, 4),
                      Fraction(68, 15), Fraction(127, 28), 0, 0)


@settings(max_examples=100, deadline=None)
@given(*oracle_cases)
@example(*LARGE_GRID_EXAMPLE)
def test_drawn_chambers_match_fraction_oracle(n1, n2, x0, y0, w, h, ox, oy):
    assume(n1[0] * n2[1] != n1[1] * n2[0])
    spec = from_normals(2, [n1, n2])
    window = tuple(_whole_to_int(v) for v in (
        x0 + ox, x0 + w + ox, y0 + oy, y0 + h + oy))
    got = drawn_chambers(spec, window)
    # repr also tells an int corner from a Fraction
    assert repr(got) == repr(oracle_drawn_chambers(spec, window))
    # every vertex of the sweep is an int pair on the grid over M inside
    # the window scaled by M, so vertices do not grow from level to
    # level, and no piece repeats one
    m, corners = _window_corners(spec, window)
    for _, poly in _strip_pieces(spec, list(corners), m):
        assert len(set(poly)) == len(poly)
        for v in poly:
            assert [type(t) for t in v] == [int, int]
            assert window[0] * m <= v[0] <= window[1] * m
            assert window[2] * m <= v[1] <= window[3] * m


@settings(max_examples=100, deadline=None)
@given(*oracle_cases)
# x + y = 0 leaves the window's left edge at y = 1/3000, printed -0.000
# before the sign is dropped
@example((1, 1), (-1, 1), Fraction(-1, 3000), Fraction(-1), Fraction(1),
         Fraction(2), 0, 0)
@example(*LARGE_GRID_EXAMPLE)
def test_render_matches_fraction_oracle_bytes(n1, n2, x0, y0, w, h, ox, oy):
    assume(n1[0] * n2[1] != n1[1] * n2[0])
    spec = from_normals(2, [n1, n2])
    window = (x0 + ox, x0 + w + ox, y0 + oy, y0 + h + oy)
    assert render_svg_2d(spec, window) == oracle_render_svg_2d(spec, window)
