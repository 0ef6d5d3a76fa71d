"""Regenerate oracles.json from first principles, without the engine.

    python3 perfbench/derive_oracles.py

Derives the 16 reflexive polygons up to GL2(Z), the class count and the
multiset of per-class cell censuses of each cone over them, the class
counts of the two acyclicity-session cones, and the 200-row per-class
cell census of the cone over the octahedron.  Class sets come from two
independent routes, a step-by-step search with face-lattice feasibility
and (rank 3 only) the vertex-barycenter grid, and must agree.  Takes a
few minutes; the result is committed, so the benchmark never runs this.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import combinations, product

from oracles import (
    ORACLE_FILE,
    ChamberGeometry,
    Pairing,
    classes_bfs,
    classes_grid,
    polygon_normals,
)

# The conifold: cone over the unit square, as in the engine's test fixtures.
SQUARE_NORMALS = [(1, 0, 0), (0, 1, 0), (-1, 0, 1), (0, -1, 1)]
OCTAHEDRON_RAYS = [(1, 0, 0, 1), (-1, 0, 0, 1), (0, 1, 0, 1),
                   (0, -1, 0, 1), (0, 0, 1, 1), (0, 0, -1, 1)]


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points):
    pts = sorted(set(points))
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _is_reflexive(poly) -> bool:
    # Every edge at lattice distance one from the origin.
    k = len(poly)
    for i in range(k):
        a, b = poly[i], poly[(i + 1) % k]
        if a[0] * b[1] - a[1] * b[0] != math.gcd(b[0] - a[0], b[1] - a[1]):
            return False
    return True


def _normal_form(poly):
    """Least image over the maps sending an edge start a to (0, -1) and the
    edge direction to (1, 0); both are lattice bases at distance one."""
    best = None
    k = len(poly)
    for orient in (poly, poly[::-1]):
        for i in range(k):
            a, b = orient[i], orient[(i + 1) % k]
            g = math.gcd(b[0] - a[0], b[1] - a[1])
            d = ((b[0] - a[0]) // g, (b[1] - a[1]) // g)
            dt = d[0] * a[1] - d[1] * a[0]
            inv = [[a[1] * dt, -a[0] * dt], [-d[1] * dt, d[0] * dt]]
            m = [inv[0], [-x for x in inv[1]]]
            img = tuple(sorted((m[0][0] * x + m[0][1] * y, m[1][0] * x + m[1][1] * y)
                               for x, y in poly))
            if best is None or img < best:
                best = img
    return best


def reflexive_polygons():
    """Reflexive polygons with vertices in [-2, 2]^2, one per GL2(Z) class."""
    pts = [(x, y) for x in range(-2, 3) for y in range(-2, 3) if (x, y) != (0, 0)]
    found = {}
    for k in range(3, 7):
        for subset in combinations(pts, k):
            hull = _hull(subset)
            if len(hull) == k and _is_reflexive(hull):
                found.setdefault(_normal_form(hull), hull)
    return sorted(found.values(), key=lambda p: (len(p), _normal_form(p)))


def _census_key(census: dict) -> list:
    return [[k, v] for k, v in sorted(census.items())]


def cone_summary(normals, use_grid: bool) -> dict:
    reps = classes_bfs(normals)
    if use_grid:
        grid = classes_grid(normals)
        if grid != set(reps):
            sys.exit(f"grid and step search disagree on {normals}")
    geo = ChamberGeometry(normals)
    censuses = sorted(_census_key(geo.census(r)) for r in reps)
    return {"normals": [list(n) for n in normals], "class_count": len(reps),
            "censuses": censuses}


def octahedron_normals():
    # Facets of the octahedron |x|+|y|+|z| <= 1: (s1, s2, s3, 1), sorted.
    return sorted((a, b, c, 1) for a, b, c in product((-1, 1), repeat=3))


def main() -> None:
    polys = reflexive_polygons()
    if len(polys) != 16:
        sys.exit(f"expected 16 reflexive polygons, found {len(polys)}")
    out = {"reflexive": [], "session": {}, "octahedron": {}}
    for poly in polys:
        row = cone_summary(polygon_normals(poly), use_grid=True)
        row["vertices"] = [list(v) for v in poly]
        out["reflexive"].append(row)
        print(len(poly), row["class_count"], file=sys.stderr)
    out["session"]["square"] = cone_summary(SQUARE_NORMALS, use_grid=True)
    pentagons = [r for r in out["reflexive"] if r["class_count"] == 19]
    if len(pentagons) != 1 or len(pentagons[0]["vertices"]) != 5:
        sys.exit("expected exactly one reflexive polygon with 19 classes")
    out["session"]["pentagon"] = {"vertices": pentagons[0]["vertices"],
                                  "class_count": 19}
    normals = octahedron_normals()
    geo = ChamberGeometry(normals)
    red = Pairing(normals)
    reps = classes_bfs(normals)
    if len(reps) != 200:
        sys.exit(f"expected 200 octahedron classes, found {len(reps)}")
    out["octahedron"] = {
        "rays": [list(r) for r in OCTAHEDRON_RAYS],
        "normals": [list(n) for n in normals],
        "census": {",".join(map(str, red.canonical(r))): _census_key(geo.census(r))
                   for r in reps},
    }
    ORACLE_FILE.write_text(json.dumps(out, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
