"""Deterministic SVG rendering of rank-2 chamber decompositions.

Chambers meeting the window are filled with a color derived from the
hash of their class representative, hyperplane levels are drawn on top,
then the lattice points.  All geometry is computed exactly; numbers are
only rounded at the final formatting step, so equal inputs give
byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

from .cells import class_of
from .cone import ConeSpec
from .errors import InputError, UnsupportedOperationError
from .ratgeom import IntVec

# Most lattice points plus chamber pieces a window may ask ``render_svg_2d``
# to draw; 10^6 admits the quadric's window of side 200 (about 6.9e5).
SVG_BUDGET = 10 ** 6


def _fmt(x) -> str:
    s = f"{float(x):.3f}"
    return "0.000" if s == "-0.000" else s


def _class_color(rep: IntVec) -> str:
    blob = json.dumps(list(rep)).encode("ascii")
    h = int.from_bytes(hashlib.sha256(blob).digest()[:4], "big") % 360
    return f"hsl({h},62%,72%)"


def _split(poly, a, b, k):
    """The parts of a convex polygon where a x + b y <= k and >= k.

    Vertices are (X, Y, W) for the point (X/W, Y/W), with W > 0 and
    gcd 1.  L = aX + bY - kW is linear in (X, Y, W) with the sign of
    a x + b y - k, so where L changes sign strictly along an edge PQ the
    point L(Q) P - L(P) Q, turned to W > 0, lies on the line.  A vertex
    on the line goes to both parts, a cut point is strictly inside an
    edge, and both parts keep the counterclockwise order.
    """
    below, above = [], []
    p = poly[-1]
    lp = a * p[0] + b * p[1] - k * p[2]
    for q in poly:
        lq = a * q[0] + b * q[1] - k * q[2]
        if lp < 0 < lq or lq < 0 < lp:
            x = lq * p[0] - lp * q[0]
            y = lq * p[1] - lp * q[1]
            w = lq * p[2] - lp * q[2]
            if w < 0:
                x, y, w = -x, -y, -w
            g = math.gcd(x, y, w)
            cut = (x // g, y // g, w // g)
            below.append(cut)
            above.append(cut)
        if lq <= 0:
            below.append(q)
        if lq >= 0:
            above.append(q)
        p, lp = q, lq
    return below, above


def _from_angle_zero(poly):
    # Rotate to the first vertex counterclockwise from angle 0 about the
    # vertex centroid, which is interior since poly is convex,
    # counterclockwise and without repeats; see drawn_chambers.  The
    # vertices at angles in [0, pi), dy > 0 or dy == 0 < dx, are one run
    # of that order, and the wanted vertex heads it.  Offsets from the
    # centroid are scaled by n times the common denominator.
    n = len(poly)
    den = math.lcm(*(w for _, _, w in poly))
    xs = [x * (den // w) for x, _, w in poly]
    ys = [y * (den // w) for _, y, w in poly]
    sx, sy = sum(xs), sum(ys)
    up = [n * y > sy or n * y == sy and n * x > sx for x, y in zip(xs, ys)]
    k = next(j for j in range(n) if up[j] and not up[j - 1])
    return poly[k:] + poly[:k]


def _window_corners(window):
    """The window's corners, counterclockwise from (x0, y0), keyed by
    their (X, Y, W) over the window's common denominator."""
    x0, x1, y0, y1 = window
    den = math.lcm(*(v.denominator for v in window))
    corners = {}
    for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1)):
        hx = x.numerator * (den // x.denominator)
        hy = y.numerator * (den // y.denominator)
        g = math.gcd(hx, hy, den)
        corners[(hx // g, hy // g, den // g)] = (x, y)
    return corners


def _strip_pieces(spec: ConeSpec, poly):
    """Cut a convex polygon of (X, Y, W) vertices by one normal's closed
    strips c - 1 <= <x, n> <= c at a time, sweeping the levels c upward
    and splitting each strip off what is left.  Returns the (ceiling
    vector, vertex list) of every piece, lex-sorted since each piece's
    strips are appended by increasing level, and each piece rotated to
    start at its first vertex counterclockwise from angle 0
    (``_from_angle_zero``)."""
    pieces = [((), poly)]
    for a, b in spec.normals:
        split = []
        for c, rest in pieces:
            lo = min((a * x + b * y) // w for x, y, w in rest)
            hi = max(-(-(a * x + b * y) // w) for x, y, w in rest)
            for ci in range(lo + 1, hi):
                below, rest = _split(rest, a, b, ci)
                split.append((c + (ci,), below))
            split.append((c + (hi,), rest))
        pieces = split
    return [(c, _from_angle_zero(piece)) for c, piece in pieces]


def _checked_window(spec: ConeSpec, window):
    """The window (x0, x1, y0, y1) of a rank-2 cone, its ints kept and
    its other rationals made Fractions, once it is checked: positive
    width and height, every number the document prints a finite float,
    and at most SVG_BUDGET lattice points and chamber pieces to draw."""
    if spec.rank != 2:
        raise UnsupportedOperationError("SVG rendering needs a rank-2 cone")
    try:
        x0, x1, y0, y1 = (Fraction(w) for w in window)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise InputError(
            f"window must be four rationals x0, x1, y0, y1, not {window!r}"
        ) from None
    if x0 >= x1 or y0 >= y1:
        raise InputError("window must have positive width and height")
    try:
        # every number the document prints lies within these floats
        for w in (x0, x1, y0, y1, x1 - x0, y1 - y0):
            float(w)
    except OverflowError:
        raise InputError(
            f"window {window!r} does not fit in finite floats") from None
    # The pieces are regions of the L = sum_i L_i level lines meeting the
    # window, L_i those of normal i, and L lines cut the plane into at
    # most 1 + L + L(L - 1)/2 <= (1 + L)^2 regions.
    levels = 0
    for a, b in spec.normals:
        vals = [a * x + b * y for x in (x0, x1) for y in (y0, y1)]
        levels += math.floor(max(vals)) - math.ceil(min(vals)) + 1
    work = ((math.floor(x1) - math.ceil(x0) + 1)
            * (math.floor(y1) - math.ceil(y0) + 1) + (1 + levels) ** 2)
    if work > SVG_BUDGET:
        raise InputError(
            f"window {window!r} may draw up to {work} lattice points and "
            f"chamber pieces, past the budget of {SVG_BUDGET}")
    return tuple(w if type(w) is int else v
                 for w, v in zip(window, (x0, x1, y0, y1)))


def drawn_chambers(spec: ConeSpec, window):
    """Chambers whose closure meets the window, with clipped polygons.

    Returns a lex-sorted list of (ceiling vector, vertex list); vertices
    are exact and counterclockwise: the window's own values at its
    corners, Fractions elsewhere.  The window is cut into strip pieces
    (_strip_pieces).  A piece has positive area: the window does, and a
    strip is only taken where its open interior meets the open range of
    <x, n> on the piece.  So it has interior points, all with ceiling
    vector c, and c is a chamber; and a point of the piece on two
    non-parallel bounding lines is a vertex, so the vertex set is the
    closure's.  Splitting keeps the window's counterclockwise order and
    never repeats a vertex, so each piece is only rotated to start at
    its first vertex counterclockwise from angle 0 about the vertex
    centroid.  ``render_svg_2d`` draws the same pieces from their
    integer vertices, and both refuse the same cones and windows
    (``_checked_window``).
    """
    corners = _window_corners(_checked_window(spec, window))
    return [(c, [corners[v] if v in corners
                 else (Fraction(v[0], v[2]), Fraction(v[1], v[2]))
                 for v in poly])
            for c, poly in _strip_pieces(spec, list(corners))]


def _level_segments(n, window):
    """(first, last, m) for every level line <x, n> = k meeting the
    window in a segment: its lex first and last points on the window's
    edges, as integer pairs over the positive denominator m."""
    a, b = n
    den = math.lcm(*(v.denominator for v in window))
    x0, x1, y0, y1 = (v.numerator * (den // v.denominator) for v in window)
    # scaled by den, and then by s so that the crossings with the edges
    # x = const and y = const are integers too
    s = (abs(a) or 1) * (abs(b) or 1)
    m = den * s
    vals = [a * x + b * y for x in (x0, x1) for y in (y0, y1)]
    out = []
    for k in range(-(-min(vals) // den), max(vals) // den + 1):
        pts = set()
        if b != 0:
            for xe in (x0, x1):
                y = (k * den - a * xe) * (s // b)
                if y0 * s <= y <= y1 * s:
                    pts.add((xe * s, y))
        if a != 0:
            for ye in (y0, y1):
                x = (k * den - b * ye) * (s // a)
                if x0 * s <= x <= x1 * s:
                    pts.add((x, ye * s))
        if len(pts) >= 2:
            out.append((min(pts), max(pts), m))
    return out


def render_svg_2d(spec: ConeSpec, window) -> str:
    """Render the chamber decomposition over a rational window.

    window is (x0, x1, y0, y1); output is a standalone SVG document,
    byte-identical across runs for equal inputs.  Each piece is colored
    by its class, which ``cells.class_of`` reads off its ceiling vector.
    """
    window = x0, x1, y0, y1 = tuple(map(Fraction, _checked_window(spec, window)))
    width = x1 - x0
    height = y1 - y0
    sw = width / 256
    parts = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="640" height="{int(640 * height / width)}" '
        f'viewBox="{_fmt(x0)} {_fmt(-y1)} {_fmt(width)} {_fmt(height)}">')
    parts.append(
        f'<rect x="{_fmt(x0)}" y="{_fmt(-y1)}" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" fill="#ffffff"/>')
    # The pieces of drawn_chambers, printed from their (X, Y, W)
    # vertices: int true division rounds X / W as float(Fraction) does.
    # An inner vertex bounds up to four pieces and a class colors many,
    # so each is formatted once per call.
    points = {}
    colors = {}
    for c, poly in _strip_pieces(spec, list(_window_corners(window))):
        rep = class_of(spec, c)
        if rep not in colors:
            colors[rep] = _class_color(rep)
        for v in poly:
            if v not in points:
                x, y, w = v
                points[v] = f"{_fmt(x / w)},{_fmt(-y / w)}"
        parts.append(
            f'<polygon points="{" ".join(map(points.__getitem__, poly))}" '
            f'fill="{colors[rep]}" stroke="none"/>')
    for n in spec.normals:
        # ints over m: true division rounds as float(Fraction) does
        for (ax, ay), (bx, by), m in _level_segments(n, window):
            parts.append(
                f'<line x1="{_fmt(ax / m)}" y1="{_fmt(-ay / m)}" '
                f'x2="{_fmt(bx / m)}" y2="{_fmt(-by / m)}" '
                f'stroke="#333333" stroke-width="{_fmt(sw)}"/>')
    r = width / 120
    for xi in range(math.ceil(x0), math.floor(x1) + 1):
        for yi in range(math.ceil(y0), math.floor(y1) + 1):
            parts.append(
                f'<circle cx="{_fmt(xi)}" cy="{_fmt(-yi)}" r="{_fmt(r)}" '
                f'fill="#111111"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
