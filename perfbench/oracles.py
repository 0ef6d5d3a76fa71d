"""Output oracles that never call the engine under test.

Everything here is plain integer and ``Fraction`` arithmetic written for
the benchmark: facet normals of polygon cones, reduction of ceiling
vectors modulo the pairing lattice, chamber cells read off the face
lattice of the closed chamber polytope, root decompositions, and the
region count of a line arrangement.  ``derive_oracles.py`` uses these to
freeze ``oracles.json``; the benchmark uses them again at check time.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

ORACLE_FILE = Path(__file__).with_name("oracles.json")


def load_frozen() -> dict:
    return json.loads(ORACLE_FILE.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- matrices

def det(rows) -> int:
    """Integer determinant by Bareiss elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def adjugate(rows) -> list[list[int]]:
    n = len(rows)
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]
            adj[j][i] = (-1) ** (i + j) * det(minor)
    return adj


def rank(rows) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col] / m[r][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


# ---------------------------------------------------------------- cones

def polygon_normals(vertices) -> list[tuple[int, int, int]]:
    """Inward facet normals of the cone over a reflexive polygon at height 1.

    Each edge a -> b (counterclockwise) lies on <u, x> = -1 for a primitive
    u, so (u, 1) vanishes on both rays (a, 1) and (b, 1).
    """
    out = []
    k = len(vertices)
    for i in range(k):
        a, b = vertices[i], vertices[(i + 1) % k]
        g = a[0] * b[1] - a[1] * b[0]
        if g <= 0:
            raise ValueError("polygon must be counterclockwise around 0")
        u = ((a[1] - b[1]) // g, (b[0] - a[0]) // g)
        if (a[1] - b[1]) % g or (b[0] - a[0]) % g or dot(u, a) != -1:
            raise ValueError("edge is not at lattice distance one")
        out.append((u[0], u[1], 1))
    return out


class Pairing:
    """Reduction of ceiling vectors modulo the pairing lattice.

    The pairing lattice is {(<m, n_i>)_i : m integral}.  With B the first
    rank linearly independent normals, c - N floor(B^-1 c_B) depends only
    on the class of c, so it is a canonical representative.
    """

    def __init__(self, normals):
        self.normals = [tuple(n) for n in normals]
        d = len(self.normals[0])
        self.basis = None
        for idx in combinations(range(len(self.normals)), d):
            rows = [self.normals[i] for i in idx]
            dt = det(rows)
            if dt:
                self.basis, self.det, self.adj = idx, dt, adjugate(rows)
                break
        if self.basis is None:
            raise ValueError("normals do not span")

    def canonical(self, c) -> tuple[int, ...]:
        cb = [c[i] for i in self.basis]
        m = [dot(row, cb) for row in self.adj]
        dt = self.det
        if dt < 0:
            m, dt = [-x for x in m], -dt
        shift = [x // dt for x in m]
        return tuple(ci - dot(n, shift) for ci, n in zip(c, self.normals))


# ---------------------------------------------------------- chamber cells

class ChamberGeometry:
    """Vertices and faces of closed chamber polytopes of one cone.

    The closed chamber of c is c_i - 1 <= <x, n_i> <= c_i.  Bit i of a
    tight mask is the upper bound of normal i, bit t + i its lower bound.
    """

    def __init__(self, normals):
        self.normals = [tuple(n) for n in normals]
        self.t = len(self.normals)
        d = len(self.normals[0])
        self.frames = []
        for idx in combinations(range(self.t), d):
            rows = [self.normals[i] for i in idx]
            dt = det(rows)
            if dt:
                self.frames.append((idx, adjugate(rows), dt))
        self.lower = ((1 << self.t) - 1) << self.t
        self.upper = (1 << self.t) - 1

    def vertices(self, c) -> dict:
        """Map from exact vertex to its tight mask."""
        out = {}
        for idx, adj, dt in self.frames:
            for sides in product((0, 1), repeat=len(idx)):
                rhs = [c[i] - s for i, s in zip(idx, sides)]
                x = [dot(row, rhs) for row in adj]
                den = dt
                if den < 0:
                    x, den = [-v for v in x], -den
                mask = 0
                for i, n in enumerate(self.normals):
                    p = dot(x, n)
                    hi, lo = c[i] * den, (c[i] - 1) * den
                    if p > hi or p < lo:
                        break
                    if p == hi:
                        mask |= 1 << i
                    elif p == lo:
                        mask |= 1 << (self.t + i)
                else:
                    key = tuple(Fraction(v, den) for v in x)
                    out[key] = mask
        return out

    def face_masks(self, c) -> set[int]:
        """Tight masks of all nonempty faces: intersections of vertex masks."""
        vmasks = set(self.vertices(c).values())
        faces = set(vmasks)
        frontier = set(vmasks)
        while frontier:
            new = {a & b for a in frontier for b in vmasks} - faces
            faces |= new
            frontier = new
        return faces

    def pinned_sets(self, c) -> set[int]:
        """Pinned index masks of the nonempty cells of chamber c.

        A point of the closed polytope lies in the relative interior of
        exactly one face and has that face's tight set.  It belongs to the
        half-open chamber when no lower bound is tight, and to the cell
        whose pinned set is its set of tight upper bounds.
        """
        return {m & self.upper for m in self.face_masks(c)
                if not m & self.lower}

    def feasible(self, c) -> bool:
        return bool(self.pinned_sets(c))

    def census(self, c) -> dict[int, int]:
        out: dict[int, int] = {}
        for s in self.pinned_sets(c):
            rows = [self.normals[i] for i in range(self.t) if s >> i & 1]
            k = rank(rows) if rows else 0
            out[k] = out.get(k, 0) + 1
        return dict(sorted(out.items()))


def classes_bfs(normals) -> list[tuple[int, ...]]:
    """Canonical class representatives by single steps between chambers,
    with feasibility decided by ChamberGeometry."""
    geo = ChamberGeometry(normals)
    red = Pairing(normals)
    t = len(normals)
    start = red.canonical((0,) * t)
    seen = {start}
    queue = [start]
    while queue:
        cur = queue.pop()
        for i in range(t):
            for step in (1, -1):
                nxt = tuple(x + step if j == i else x for j, x in enumerate(cur))
                if not geo.feasible(nxt):
                    continue
                rep = red.canonical(nxt)
                if rep not in seen:
                    seen.add(rep)
                    queue.append(rep)
    return sorted(seen)


def barycenter_denominator(normals) -> int:
    d = len(normals[0])
    dets = [abs(det(rows)) for rows in combinations(normals, d)]
    den = math.lcm(*range(1, d + 2))
    return den * math.lcm(*[x for x in dets if x])


def classes_grid(normals) -> set[tuple[int, ...]]:
    """Classes met by the grid (1/D) Z^d over one fundamental domain.

    Every chamber contains the relative interior of a face of its closure,
    and that face holds a barycenter of at most rank + 1 affinely
    independent vertices.  Vertices have denominators dividing some
    |det| of rank normals, so D = lcm(1..rank+1) * lcm|det| puts such a
    barycenter on the grid; translating by a lattice point keeps it on
    the grid and keeps its class.
    """
    den = barycenter_denominator(normals)
    red = Pairing(normals)
    d = len(normals[0])
    found = set()
    for k in product(range(den), repeat=d):
        c = tuple(ceil_div(dot(k, n), den) for n in normals)
        found.add(red.canonical(c))
    return found


def root_counts(normals, q: int) -> list[int]:
    """Sorted class multiplicities of the chambers of -v/q, v in [0, q)^d."""
    red = Pairing(normals)
    d = len(normals[0])
    counts: dict = {}
    for v in product(range(q), repeat=d):
        c = tuple(ceil_div(-dot(v, n), q) for n in normals)
        rep = red.canonical(c)
        counts[rep] = counts.get(rep, 0) + 1
    return sorted(counts.values())


def arrangement_regions(normals, window) -> int:
    """Regions cut from an open rectangle by the lines <x, n> = k.

    Chambers are convex, so each chamber meets the window in exactly one
    region.  Regions = 1 + lines + sum over interior crossing points of
    (lines through the point - 1).
    """
    x0, x1, y0, y1 = (Fraction(w) for w in window)
    corners = [(x0, y0), (x0, y1), (x1, y0), (x1, y1)]
    lines = []
    for n in normals:
        vals = [dot(p, n) for p in corners]
        lo, hi = min(vals), max(vals)
        for k in range(math.floor(lo) + 1, math.ceil(hi)):
            lines.append((n, k))
    through: dict = {}
    for (n, k), (m, j) in combinations(lines, 2):
        dt = n[0] * m[1] - n[1] * m[0]
        if dt == 0:
            continue
        p = (Fraction(k * m[1] - j * n[1], dt), Fraction(n[0] * j - m[0] * k, dt))
        if x0 < p[0] < x1 and y0 < p[1] < y1:
            through.setdefault(p, set()).update(((n, k), (m, j)))
    return 1 + len(lines) + sum(len(s) - 1 for s in through.values())
