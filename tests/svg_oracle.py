"""Reference rank-2 chamber maps, clipped with Fraction arithmetic.

The strip loop cuts the window by each normal's closed strips with two
exact Sutherland-Hodgman clips per strip, keeps the pieces of positive
area and rotates each to start at its first vertex counterclockwise from
angle 0 about the vertex centroid.  It shares no code with the integer
sweep of ``conic.svg`` and is the reference the tests compare
``drawn_chambers`` with.
"""

import math
from fractions import Fraction

from conic.ratgeom import dot


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
