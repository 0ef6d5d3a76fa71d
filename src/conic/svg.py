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

from .chambers import canonical_class
from .cone import ConeSpec
from .errors import InputError, UnsupportedOperationError
from .ratgeom import IntVec, dot


def _fmt(x) -> str:
    s = f"{float(x):.3f}"
    return "0.000" if s == "-0.000" else s


def _class_color(rep: IntVec) -> str:
    blob = json.dumps(list(rep)).encode("ascii")
    h = int.from_bytes(hashlib.sha256(blob).digest()[:4], "big") % 360
    return f"hsl({h},62%,72%)"


def _corners(window):
    x0, x1, y0, y1 = window
    return ((x0, y0), (x0, y1), (x1, y0), (x1, y1))


def _clip(poly, n, k):
    # Sutherland-Hodgman: the part of a convex polygon where <x, n> <= k.
    out = []
    for p, q in zip(poly, poly[1:] + poly[:1]):
        vp, vq = dot(p, n) - k, dot(q, n) - k
        if vp <= 0:
            out.append(p)
        if (vp < 0 < vq) or (vq < 0 < vp):
            t = Fraction(vq, vq - vp)
            out.append((q[0] + t * (p[0] - q[0]), q[1] + t * (p[1] - q[1])))
    return out


def _from_angle_zero(poly):
    # poly is convex, counterclockwise and without repeats, so its
    # vertex centroid is interior; see drawn_chambers.
    n = len(poly)
    cx = Fraction(sum(p[0] for p in poly), n)
    cy = Fraction(sum(p[1] for p in poly), n)

    def key(p):
        # (quadrant, tangent of the angle within the quadrant)
        dx, dy = p[0] - cx, p[1] - cy
        if dx > 0 and dy >= 0:
            return 0, dy / dx
        if dx <= 0 and dy > 0:
            return 1, -dx / dy
        if dx < 0 and dy <= 0:
            return 2, dy / dx
        return 3, -dx / dy

    k = min(range(n), key=lambda j: key(poly[j]))
    return poly[k:] + poly[:k]


def _area2(points) -> Fraction:
    total = Fraction(0)
    n = len(points)
    for i in range(n):
        x0, y0 = points[i]
        x1, y1 = points[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total


def drawn_chambers(spec: ConeSpec, window):
    """Chambers whose closure meets the window, with clipped polygons.

    Returns a lex-sorted list of (ceiling vector, vertex list); vertices
    are exact and counterclockwise.  The window is cut by one normal's
    closed strips c - 1 <= <x, n> <= c at a time.  A piece of positive
    area has interior points, all with ceiling vector c, so c is a
    chamber; and a point of the piece on two non-parallel bounding lines
    is a vertex, so the vertex set is the closure's.  Clipping keeps the
    window's counterclockwise order and never repeats a vertex, so each
    piece is only rotated to start at its first vertex counterclockwise
    from angle 0 about the vertex centroid.
    """
    x0, x1, y0, y1 = window
    pieces = [((), [(x0, y0), (x1, y0), (x1, y1), (x0, y1)])]
    for n in spec.normals:
        neg = tuple(-a for a in n)
        split = []
        for c, poly in pieces:
            vals = [dot(p, n) for p in poly]
            for ci in range(math.floor(min(vals)) + 1, math.ceil(max(vals)) + 1):
                piece = _clip(_clip(poly, n, ci), neg, 1 - ci)
                if len(set(piece)) >= 3:
                    split.append((c + (ci,), piece))
        pieces = split
    out = [(c, _from_angle_zero(poly))
           for c, poly in pieces if _area2(poly) != 0]
    return sorted(out, key=lambda item: item[0])


def _level_segment(n, k, window):
    x0, x1, y0, y1 = window
    pts = set()
    a, b = n
    if b != 0:
        for xe in (x0, x1):
            y = Fraction(k - a * xe, b)
            if y0 <= y <= y1:
                pts.add((Fraction(xe), y))
    if a != 0:
        for ye in (y0, y1):
            x = Fraction(k - b * ye, a)
            if x0 <= x <= x1:
                pts.add((x, Fraction(ye)))
    if len(pts) < 2:
        return None
    pts = sorted(pts)
    return pts[0], pts[-1]


def render_svg_2d(spec: ConeSpec, window) -> str:
    """Render the chamber decomposition over a rational window.

    window is (x0, x1, y0, y1); output is a standalone SVG document,
    byte-identical across runs for equal inputs.
    """
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
    window = (x0, x1, y0, y1)
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
    for c, poly in drawn_chambers(spec, window):
        rep = canonical_class(spec, c)
        points = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in poly)
        parts.append(
            f'<polygon points="{points}" fill="{_class_color(rep)}" '
            f'stroke="none"/>')
    for n in spec.normals:
        vals = [dot(pt, n) for pt in _corners(window)]
        for k in range(math.ceil(min(vals)), math.floor(max(vals)) + 1):
            seg = _level_segment(n, k, window)
            if seg is None:
                continue
            (ax, ay), (bx, by) = seg
            parts.append(
                f'<line x1="{_fmt(ax)}" y1="{_fmt(-ay)}" x2="{_fmt(bx)}" '
                f'y2="{_fmt(-by)}" stroke="#333333" '
                f'stroke-width="{_fmt(sw)}"/>')
    r = width / 120
    for xi in range(math.ceil(x0), math.floor(x1) + 1):
        for yi in range(math.ceil(y0), math.floor(y1) + 1):
            parts.append(
                f'<circle cx="{_fmt(xi)}" cy="{_fmt(-yi)}" r="{_fmt(r)}" '
                f'fill="#111111"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
