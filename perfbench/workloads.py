"""The four benchmark workloads: inputs from a seed, set-up, ops, checks.

Ops call the engine through module attributes (``cli_io.analyze``), never
through names bound at import, so spans installed by ``tracing`` see
them.  Checks compare against ``oracles`` and the frozen tables in
``oracles.json``; none of them calls the engine.

Inputs are built as rounds that hold the same mix of costs (every polygon
under every basis, every chosen cyclic cone, every class pair, every
octahedron census in the same share), in seeded order, so runs with
different seeds meet the same costs and their percentiles agree.  A run
attempts the first ``seconds * rate`` ops; each rate makes a 20 s run one
round.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import oracles

FROZEN = oracles.load_frozen()

WINDOW = (-1, 1, -1, 1)
PRIMES = (2, 3, 5)
# 1/r(1, a) for r below 40 keeps an op near 0.2 s of scaled CPU time, so
# a round of 48 cones fits a 20 s run.
R_VALUES = range(16, 40)
# The identity and the four elementary +-1 shears of Z^2.
BASES = (((1, 0), (0, 1)), ((1, 1), (0, 1)), ((1, -1), (0, 1)),
         ((1, 0), (1, 1)), ((1, 0), (-1, 1)))
ROUNDS = 10
# One acyclicity pass: the 361 ordered class pairs of the pentagon and four
# times the 9 of the square at window radius 2, and twice each spliced
# NCCR verdict on the square: 401 ops.
PASSES = 8
SQUARE_REPEATS = 4
NCCR_REPEATS = 2
SQUARE_SUPPORTS = (1, 2)
OCTA_STRATA = 50


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------------ reflexive

def reflexive_inputs(seed: int) -> list[Op]:
    """Rounds of every polygon under every basis in BASES, in seeded order,
    so every run meets the same mix of cones, crashing ones included."""
    rng = random.Random(seed)
    polys = FROZEN["reflexive"]
    cones = [(idx, m) for idx in range(len(polys)) for m in BASES]
    ops = []
    for _ in range(ROUNDS):
        rng.shuffle(cones)
        for idx, m in cones:
            rays = [[m[0][0] * x + m[0][1] * y, m[1][0] * x + m[1][1] * y, 1]
                    for x, y in polys[idx]["vertices"]]
            ops.append(Op("analyze", (idx, json.dumps({"rank": 3, "primal_rays": rays}))))
    return ops


def reflexive_run(conic, session, op: Op) -> str:
    cli_io = conic.cli_io
    report = cli_io.analyze(cli_io.build_cone(cli_io.parse_input(op.args[1])))
    return cli_io.serialize_report(report)


def _census_rows(report) -> list:
    return sorted(sorted([int(k), v] for k, v in row["cell_census"].items())
                  for row in report["classes"])


def reflexive_check(op: Op, output: str) -> str | None:
    want = FROZEN["reflexive"][op.args[0]]
    report = json.loads(output)
    if report["class_count"] != want["class_count"]:
        return f"class count {report['class_count']} != {want['class_count']}"
    if len(report["classes"]) != want["class_count"]:
        return "class rows differ from the class count"
    if _census_rows(report) != want["censuses"]:
        return "cell censuses differ from the face-lattice oracle"
    if report["global_dimension"] != 3:
        return f"global dimension {report['global_dimension']} != 3"
    normals = report["cone"]["normals"]
    if len(normals) == 3 and abs(oracles.det(normals)) != report["class_count"]:
        return "triangle class count differs from |det(normals)|"
    for row in report["classes"]:
        if row["pdim"] != max(int(k) for k in row["cell_census"]):
            return f"pdim of {row['label']} is not its top cell codimension"
    return None


# ---------------------------------------------------------- acyclicity

def acyclicity_inputs(seed: int) -> list[Op]:
    """Passes over every ordered class pair of the pentagon, SQUARE_REPEATS
    times every ordered pair of the square and NCCR_REPEATS times each
    spliced support, each pass in seeded order.  Every pass holds the same
    ops, so runs with different seeds fill and reuse the caches alike."""
    rng = random.Random(seed)
    sizes = {name: row["class_count"] for name, row in FROZEN["session"].items()}
    pass_ = [Op("acyclicity", (cone, i, j))
             for cone, repeats in (("pentagon", 1), ("square", SQUARE_REPEATS))
             for _ in range(repeats)
             for i in range(sizes[cone]) for j in range(sizes[cone])]
    pass_ += [Op("nccr", ("square", (0, k)))
              for k in SQUARE_SUPPORTS for _ in range(NCCR_REPEATS)]
    ops = []
    for _ in range(PASSES):
        rng.shuffle(pass_)
        ops += pass_
    return ops


def acyclicity_setup(conic) -> dict:
    session = FROZEN["session"]
    specs = {
        "square": conic.cone.from_normals(3, session["square"]["normals"]),
        "pentagon": conic.cone.from_primal_rays(
            3, [(x, y, 1) for x, y in session["pentagon"]["vertices"]]),
    }
    out = {}
    for name, spec in specs.items():
        classes = conic.chambers.enumerate_classes(spec)
        want = session[name]["class_count"]
        if len(classes.reps) != want:
            raise RuntimeError(f"{name}: {len(classes.reps)} classes, oracle {want}")
        out[name] = (spec, classes)
    return out


def acyclicity_run(conic, session, op: Op):
    spec, classes = session[op.args[0]]
    if op.kind == "nccr":
        support = tuple(classes.rep_of(f"A{i}") for i in op.args[1])
        return conic.complexes.nccr_verdict(spec, support=support)
    _, i, j = op.args
    return conic.complexes.verify_acyclicity(
        spec, classes.reps[i], classes.reps[j], window=2)


def acyclicity_check(op: Op, out) -> str | None:
    if op.kind == "nccr":
        return None if out.verdict == "NCCR" else f"verdict {out.verdict} != NCCR"
    if out.checked != 5 ** 3:
        return f"checked {out.checked} points, window holds 125"
    return None if out.passed else "acyclicity report did not pass"


def acyclicity_digest(out) -> str:
    if hasattr(out, "verdict"):
        return sha(repr((out.verdict, out.support, out.reasons)))
    return sha(repr((out.checked, out.hits, out.failures, out.witness, out.passed)))


# ------------------------------------------------------------- cyclic

def _units(r: int) -> list[int]:
    return [a for a in range(1, r) if math.gcd(a, r) == 1]


def cyclic_inputs(seed: int) -> list[Op]:
    """Rounds of the same 48 cones, every r twice: a at a quarter and at
    three quarters of the units mod r, since the cost of an op grows with
    r + a but not evenly in a.  Every run thus meets the same costs; the
    seed picks each p and shuffles each round."""
    rng = random.Random(seed)
    cones = []
    for r in R_VALUES:
        units = _units(r)
        cones += [(r, units[len(units) // 4]), (r, units[3 * len(units) // 4])]
    ops = []
    for _ in range(ROUNDS):
        rng.shuffle(cones)
        ops += [Op("cyclic", (r, a, rng.choice(PRIMES))) for r, a in cones]
    return ops


def _cyclic_normals(r: int, a: int):
    return [(0, 1), (r, -a)]


def cyclic_run(conic, session, op: Op):
    """The Frobenius analysis of one cone, then its SVG picture."""
    spec = conic.cone.from_normals(2, _cyclic_normals(*op.args[:2]))
    options = conic.cli_io.AnalyzeOptions(frobenius_minimal=True, dmodule_prime=op.args[2])
    return conic.cli_io.analyze(spec, options), conic.svg.render_svg_2d(spec, WINDOW)


def cyclic_check(op: Op, out) -> str | None:
    r, a = op.args[:2]
    normals = _cyclic_normals(r, a)
    out, picture = out
    want = oracles.arrangement_regions(normals, WINDOW)
    got = picture.count("<polygon")
    if got != want:
        return f"{got} polygons, arrangement has {want} regions"
    if out["class_count"] != r:
        return f"class count {out['class_count']} != r = {r}"
    if out["global_dimension"] != 2:
        return f"global dimension {out['global_dimension']} != 2"
    frob = out["frobenius"]
    q = frob["minimal_complete_q"]
    block = frob["at_minimal_q"]
    counts = list(block["counts"].values())
    if len(counts) != r or min(counts) <= 0 or block["total"] != q * q:
        return f"decomposition at q = {q} does not cover {r} classes exactly"
    if sorted(counts) != oracles.root_counts(normals, q):
        return f"class multiplicities at q = {q} differ from the oracle"
    if q > 1 and len(oracles.root_counts(normals, q - 1)) == r:
        return f"q = {q - 1} already meets every class"
    p, e = op.args[2], frob["dmodule"]["minimal_e"]
    if not (p ** e >= q and (e == 0 or q > p ** (e - 1))):
        return f"Frobenius power {p}^{e} does not bracket q = {q}"
    return None


def cyclic_digest(out) -> str:
    report, picture = out
    return sha(json.dumps(report, sort_keys=True) + picture)


# --------------------------------------------------------- octahedron

def octahedron_inputs(seed: int) -> list[Op]:
    """Every class once, interleaved from OCTA_STRATA strata of four
    classes with the same cell census.  The five censuses hold 64, 64, 48,
    16 and 8 classes, so every OCTA_STRATA ops (one class from every
    stratum) meet each census in the same share and runs with different
    seeds meet the same costs."""
    rng = random.Random(seed)
    census = FROZEN["octahedron"]["census"]
    keys = sorted(census, key=lambda k: (sum(v for _, v in census[k]), k))
    size = len(keys) // OCTA_STRATA
    strata = [keys[i * size:(i + 1) * size] for i in range(OCTA_STRATA)]
    for s in strata:
        rng.shuffle(s)
    ops = []
    for j in range(size):
        order = list(range(OCTA_STRATA))
        rng.shuffle(order)
        ops += [Op("cells", (strata[s][j],)) for s in order]
    return ops


def octahedron_setup(conic) -> dict:
    frozen = FROZEN["octahedron"]
    spec = conic.cone.from_primal_rays(4, frozen["rays"])
    if [list(n) for n in spec.normals] != frozen["normals"]:
        raise RuntimeError("octahedron normals differ from the oracle")
    classes = conic.chambers.enumerate_classes(spec)
    red = oracles.Pairing(spec.normals)
    by_key = {",".join(map(str, red.canonical(rep))): rep for rep in classes.reps}
    if set(by_key) != set(frozen["census"]) or len(classes.reps) != len(by_key):
        raise RuntimeError("octahedron classes differ from the oracle")
    return {"spec": spec, "by_key": by_key}


def octahedron_run(conic, session, op: Op):
    spec = session["spec"]
    rep = session["by_key"][op.args[0]]
    complexes = conic.complexes
    cx = complexes.conic_complex(spec, rep)
    return cx, complexes.smith_invariants(spec, rep), complexes.pdim_simple(spec, rep)


def octahedron_check(op: Op, out) -> str | None:
    cx, smith, pdim = out
    census = [[k, len(row)] for k, row in enumerate(cx.cells) if row]
    if census != FROZEN["octahedron"]["census"][op.args[0]]:
        return "cell census differs from the frozen face-lattice table"
    if pdim != len(cx.terms) - 1 or len(smith) != len(cx.mats):
        return "pdim or Smith invariants do not match the complex"
    return None


def octahedron_digest(out) -> str:
    cx, smith, pdim = out
    return sha(repr((cx.terms, cx.mats, smith, pdim)))


# ------------------------------------------------------------ registry

@dataclass(frozen=True)
class Workload:
    name: str
    cold: bool    # no analysis before the ops: caches must be empty
    forked: bool  # each op in a child forked from the set-up state
    rate: float   # ops per second of --seconds: a run attempts seconds * rate
    inputs: Callable
    setup: Callable
    run: Callable
    check: Callable
    digest: Callable
    why: str


def _no_setup(conic):
    return None


WORKLOADS = {w.name: w for w in (
    Workload("reflexive_analyze", True, True, 4.0, reflexive_inputs, _no_setup,
             reflexive_run, reflexive_check, sha,
             "cold `conic analyze --json` on the 16 reflexive polygons; "
             "cells dominate and the class-grid defect shows"),
    Workload("acyclicity_session", False, False, 60.15, acyclicity_inputs, acyclicity_setup,
             acyclicity_run, acyclicity_check, acyclicity_digest,
             "warm session: acyclicity and spliced NCCRs reuse cached "
             "complexes; graded pieces and homology ranks dominate"),
    Workload("cyclic_frobenius", True, True, 2.4, cyclic_inputs, _no_setup,
             cyclic_run, cyclic_check, cyclic_digest,
             "cold rank-2 cyclic quotients: class grid, root decomposition "
             "and SVG; bypasses cells and acyclicity"),
    Workload("octahedron_cells", False, True, 2.5, octahedron_inputs, octahedron_setup,
             octahedron_run, octahedron_check, octahedron_digest,
             "warm rank-4 cone over the octahedron, cold per-class "
             "complexes; rank-4 FM cell enumeration dominates"),
)}
