import hashlib
import math
import re
from fractions import Fraction

import pytest

from conic import from_normals, render_svg_2d
from conic.chambers import canonical_class, chamber_of, chamber_witness
from conic.errors import InputError, UnsupportedOperationError
from conic.svg import _class_color, drawn_chambers

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
    with pytest.raises(UnsupportedOperationError):
        render_svg_2d(square, WINDOW)


def test_window_validation(quadric):
    with pytest.raises(InputError):
        render_svg_2d(quadric, (1, -1, 0, 2))
    with pytest.raises(InputError):
        render_svg_2d(quadric, (0, 1, 0))
    for bad in ("a", "1/0", None):
        with pytest.raises(InputError):
            render_svg_2d(quadric, (bad, 1, -1, 1))


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
]


@pytest.mark.parametrize("normals,window,digest", PINNED_SVG)
def test_svg_bytes_pinned(normals, window, digest):
    doc = render_svg_2d(from_normals(2, normals), window)
    assert hashlib.sha256(doc.encode()).hexdigest() == digest
