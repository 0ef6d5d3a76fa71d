"""Deterministic SVG rendering of rank-2 chamber decompositions.

Chambers meeting the window are filled with a color derived from the
hash of their class representative, hyperplane levels are drawn on top,
then the lattice points.  All geometry is computed exactly, on integer
pairs over one grid denominator per window (``_grid``); numbers are only
rounded at the final formatting step, so equal inputs give
byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

from .cells import class_of
from .cone import ConeSpec
from .errors import InputError, InternalInvariantError, UnsupportedOperationError
from .ratgeom import IntVec

# Most lattice points plus chamber pieces a window may ask ``render_svg_2d``
# to draw; 10^6 admits the quadric's window of side 200 (about 6.9e5).
SVG_BUDGET = 10 ** 6


def _fmt(x) -> str:
    s = f"{float(x):.3f}"
    return "0.000" if s == "-0.000" else s


class _Points(dict):
    """Grid pairs over m, each formatted once as "x,-y"; int true
    division rounds X / m as float(Fraction(X, m)) does."""

    def __init__(self, m):
        self.m = m

    def __missing__(self, v):
        self[v] = out = f"{_fmt(v[0] / self.m)},{_fmt(-v[1] / self.m)}"
        return out


def _class_color(rep: IntVec) -> str:
    blob = json.dumps(list(rep)).encode("ascii")
    h = int.from_bytes(hashlib.sha256(blob).digest()[:4], "big") % 360
    return f"hsl({h},62%,72%)"


def _split(poly, a, b, k):
    """The parts of a convex polygon where a X + b Y <= k and >= k.

    Vertices are grid pairs (X, Y) for (X/M, Y/M) and k is a level
    times M.  Where L = aX + bY - k changes sign strictly along an edge
    PQ, the cut point (L(Q) P - L(P) Q) / (L(Q) - L(P)) lies on the grid
    (``_grid``); a remainder raises InternalInvariantError.  A vertex on
    the line goes to both parts, a cut point is strictly inside an edge,
    and both parts keep the counterclockwise order."""
    below, above = [], []
    px, py = poly[-1]
    lp = a * px + b * py - k
    for q in poly:
        qx, qy = q
        lq = a * qx + b * qy - k
        if lp < 0 < lq or lq < 0 < lp:
            d, x, y = lq - lp, lq * px - lp * qx, lq * py - lp * qy
            if x % d or y % d:
                raise InternalInvariantError("a strip cut is off the grid")
            below.append((x // d, y // d))
            above.append((x // d, y // d))
        if lq <= 0:
            below.append(q)
        if lq >= 0:
            above.append(q)
        px, py, lp = qx, qy, lq
    return below, above


def _from_angle_zero(poly):
    # Rotate to the first vertex counterclockwise from angle 0 about the
    # vertex centroid, which is interior since poly is convex,
    # counterclockwise and without repeats; see drawn_chambers.  The
    # vertices at angles in [0, pi), dy > 0 or dy == 0 < dx, are one run
    # of that order, and the wanted vertex heads it.  Offsets from the
    # centroid are scaled by n.
    n = len(poly)
    sx, sy = map(sum, zip(*poly))
    x, y = poly[-1]
    was_up = n * y > sy or n * y == sy and n * x > sx
    for k, (x, y) in enumerate(poly):
        up = n * y > sy or n * y == sy and n * x > sx
        if up and not was_up:
            return poly[k:] + poly[:k]
        was_up = up


def _grid(spec: ConeSpec, window) -> int:
    """The denominator M over which every vertex of the window's map is
    an integer pair.  With den the window's common denominator and
    (a_i, b_i) the two normals, a vertex is a corner (den | M), a level
    line a x + b y = k on an edge x = x0 or y = y0 (den |b| or den |a|
    divides M), or two level lines crossing (|a_1 b_2 - a_2 b_1| | M).
    So M <= den |a_1 b_1 a_2 b_2| |det| with zero entries left out; on
    the cyclic cones (0, 1), (r, -a) with den 1 it is lcm(r, a)."""
    den = math.lcm(*(v.denominator for v in window))
    (a1, b1), (a2, b2) = spec.normals
    return math.lcm(*(den * abs(v) for v in (a1, b1, a2, b2) if v),
                    abs(a1 * b2 - a2 * b1))


def _window_corners(spec: ConeSpec, window):
    """The grid denominator m (``_grid``) and the window's corners,
    counterclockwise from (x0, y0), keyed by their grid pairs over m."""
    m = _grid(spec, window)
    x0, x1, y0, y1 = window
    return m, {(x.numerator * (m // x.denominator),
                y.numerator * (m // y.denominator)): (x, y)
               for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1))}


def _strip_pieces(spec: ConeSpec, poly, m):
    """Cut a convex polygon of grid pairs over m by one normal's closed
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
            vals = [a * x + b * y for x, y in rest]
            lo, hi = min(vals) // m, -(-max(vals) // m)
            for ci in range(lo + 1, hi):
                below, rest = _split(rest, a, b, ci * m)
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
    corners, Fraction(X, M) for the grid pair (X, Y) over M (``_grid``)
    elsewhere.  The window is cut into strip pieces (_strip_pieces).  A
    piece has positive area: the window does, and a strip is only taken
    where its open interior meets the open range of <x, n> on the
    piece.  So it has interior points, all with ceiling vector c, and c
    is a chamber; and a point of the piece on two non-parallel bounding
    lines is a vertex, so the vertex set is the closure's.  Splitting
    keeps the window's counterclockwise order and never repeats a
    vertex, so each piece is only rotated to start at its first vertex
    counterclockwise from angle 0 about the vertex centroid.
    ``render_svg_2d`` prints the same grid pairs, and both refuse the
    same cones and windows (``_checked_window``)."""
    m, corners = _window_corners(spec, _checked_window(spec, window))
    return [(c, [corners[v] if v in corners
                 else (Fraction(v[0], m), Fraction(v[1], m)) for v in poly])
            for c, poly in _strip_pieces(spec, list(corners), m)]


def _level_segments(n, corners, m):
    """Yield (first, last) for every level line <x, n> = k meeting the
    window in a segment: its lex first and last points on the window's
    edges, as grid pairs over m, like the window's corners."""
    a, b = n
    (x0, y0), _, (x1, y1), _ = corners
    vals = [a * x + b * y for x in (x0, x1) for y in (y0, y1)]
    for k in range(-(-min(vals) // m), max(vals) // m + 1):
        k *= m
        if b == 0:
            yield (k // a, y0), (k // a, y1)
        elif a == 0:
            yield (x0, k // b), (x1, k // b)
        else:  # clip the line's x range to the window's
            xa, xb = sorted(((k - b * y0) // a, (k - b * y1) // a))
            lo, hi = max(x0, xa), min(x1, xb)
            if lo < hi:
                yield (lo, (k - a * lo) // b), (hi, (k - a * hi) // b)


def render_svg_2d(spec: ConeSpec, window) -> str:
    """Render the chamber decomposition over a rational window.

    window is (x0, x1, y0, y1); output is a standalone SVG document,
    byte-identical across runs for equal inputs.  Each piece is colored
    by its class, which ``cells.class_of`` reads off its ceiling vector.
    """
    window = x0, x1, y0, y1 = tuple(map(Fraction, _checked_window(spec, window)))
    width, height = x1 - x0, y1 - y0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="640" height="{int(640 * height / width)}" '
        f'viewBox="{_fmt(x0)} {_fmt(-y1)} {_fmt(width)} {_fmt(height)}">',
        f'<rect x="{_fmt(x0)}" y="{_fmt(-y1)}" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" fill="#ffffff"/>']
    # The pieces of drawn_chambers and the level lines share one table of
    # grid pairs (``_Points``): an inner vertex bounds up to four pieces
    # and a line ends on piece vertices.  A class colors many pieces.
    m, corners = _window_corners(spec, window)
    points = _Points(m)
    colors = {}
    for c, poly in _strip_pieces(spec, list(corners), m):
        rep = class_of(spec, c)
        if rep not in colors:
            colors[rep] = _class_color(rep)
        parts.append(
            f'<polygon points="{" ".join(map(points.__getitem__, poly))}" '
            f'fill="{colors[rep]}" stroke="none"/>')
    sw, r = _fmt(width / 256), _fmt(width / 120)
    for n in spec.normals:
        for a, b in _level_segments(n, corners, m):
            (ax, ay), (bx, by) = points[a].split(","), points[b].split(",")
            parts.append(
                f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{by}" '
                f'stroke="#333333" stroke-width="{sw}"/>')
    for xi in range(math.ceil(x0), math.floor(x1) + 1):
        for yi in range(math.ceil(y0), math.floor(y1) + 1):
            parts.append(
                f'<circle cx="{_fmt(xi)}" cy="{_fmt(-yi)}" r="{r}" '
                f'fill="#111111"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
