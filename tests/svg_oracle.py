"""Reference rank-2 chamber maps, clipped with Fraction arithmetic.

The strip loop cuts the window by each normal's closed strips with two
exact Sutherland-Hodgman clips per strip, keeps the pieces of positive
area and rotates each to start at its first vertex counterclockwise from
angle 0 about the vertex centroid.  It shares no code with the integer
sweep of ``conic.svg`` and is the reference the tests compare
``drawn_chambers`` with.  ``oracle_render_svg_2d`` prints those Fraction
vertices, and level lines met with Fractions, through ``float``: the
reference for the bytes of ``render_svg_2d``.
"""

import math
from fractions import Fraction

from conic.chambers import canonical_class
from conic.ratgeom import dot
from conic.svg import _class_color


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


def oracle_drawn_chambers(spec, window):
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


def _fmt(x) -> str:
    s = f"{float(x):.3f}"
    return "0.000" if s == "-0.000" else s


def _level_segments(n, window):
    # lex first and last points of each level line <x, n> = k that meets
    # the window's boundary in two points or more
    x0, x1, y0, y1 = window
    a, b = n
    vals = [a * x + b * y for x in (x0, x1) for y in (y0, y1)]
    out = []
    for k in range(math.ceil(min(vals)), math.floor(max(vals)) + 1):
        pts = set()
        if b:
            pts.update((x, (k - a * x) / b) for x in (x0, x1)
                       if y0 <= (k - a * x) / b <= y1)
        if a:
            pts.update(((k - b * y) / a, y) for y in (y0, y1)
                       if x0 <= (k - b * y) / a <= x1)
        if len(pts) >= 2:
            out.append((min(pts), max(pts)))
    return out


def oracle_render_svg_2d(spec, window):
    """The SVG document of ``render_svg_2d`` for a valid window, every
    number printed through float from an exact Fraction."""
    x0, x1, y0, y1 = window = tuple(Fraction(v) for v in window)
    width, height = x1 - x0, y1 - y0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="640" height="{int(640 * height / width)}" '
        f'viewBox="{_fmt(x0)} {_fmt(-y1)} {_fmt(width)} {_fmt(height)}">',
        f'<rect x="{_fmt(x0)}" y="{_fmt(-y1)}" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" fill="#ffffff"/>']
    for c, poly in oracle_drawn_chambers(spec, window):
        points = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in poly)
        parts.append(
            f'<polygon points="{points}" '
            f'fill="{_class_color(canonical_class(spec, c))}" stroke="none"/>')
    for n in spec.normals:
        for (ax, ay), (bx, by) in _level_segments(n, window):
            parts.append(
                f'<line x1="{_fmt(ax)}" y1="{_fmt(-ay)}" '
                f'x2="{_fmt(bx)}" y2="{_fmt(-by)}" '
                f'stroke="#333333" stroke-width="{_fmt(width / 256)}"/>')
    for xi in range(math.ceil(x0), math.floor(x1) + 1):
        for yi in range(math.ceil(y0), math.floor(y1) + 1):
            parts.append(
                f'<circle cx="{_fmt(xi)}" cy="{_fmt(-yi)}" '
                f'r="{_fmt(width / 120)}" fill="#111111"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
