"""Spans around the engine's public functions, installed from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``conic`` module namespace that binds it, since ``from .chambers import
is_feasible`` copies the name.  A span is (name, start, end, parent, op
id) kept in flat arrays; parents are recorded before their children, so
self times and "under span X" flags come out of one forward pass.
Counts (constraints passed to FM, cells found, points, bytes) are taken
at the same boundaries from arguments and results.
"""

from __future__ import annotations

import base64
import functools
import gzip
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# module -> public functions that get a span
TRACED = {
    "ratgeom": ("feasible", "solve", "hermite_normal_form", "reduce_mod_hnf",
                "lattice_solve", "smith_normal_form", "rank", "qrank"),
    "cone": ("from_normals", "from_dual_rays", "from_primal_rays",
             "dual_extreme_rays", "primal_generators", "restrict_to_facet",
             "validate"),
    "chambers": ("enumerate_classes", "is_feasible", "chamber_of",
                 "canonical_class", "chamber_witness", "translation_lattice",
                 "iso_witness", "is_adjacent", "leq"),
    "cells": ("enumerate_cells", "cell_census", "has_zero_cell",
              "incidence_sign"),
    "complexes": ("conic_complex", "graded_piece", "homology_ranks",
                  "verify_acyclicity", "pdim_simple", "global_dimension",
                  "ext_dims", "smith_invariants", "resolution", "nccr_verdict"),
    "homs": ("hom_support", "supports_monomial", "hom_dim_degree_zero",
             "is_radical_monomial", "hom_is_conic", "simplicial_hom_form"),
    "frobenius": ("decompose_root", "minimal_complete_q", "dmodule_report"),
    "svg": ("drawn_chambers", "render_svg_2d"),
    "cli_io": ("parse_input", "build_cone", "analyze", "serialize_report"),
}

FM = ("ratgeom.feasible", "ratgeom.solve")
LATTICE = ("ratgeom.hermite_normal_form", "ratgeom.reduce_mod_hnf",
           "ratgeom.lattice_solve", "ratgeom.smith_normal_form")
RANK = ("ratgeom.rank", "ratgeom.qrank")
BUILD = ("cone.from_normals", "cone.from_dual_rays", "cone.from_primal_rays")


def _fm_rows(args, result):
    return len(args[0].constraints)


def _length(args, result):
    return len(result)


def _points(args, result):
    return args[1] ** args[0].rank


def _polygons(args, result):
    return result.count("<polygon")


# span name -> count taken from (args, result)
COUNTERS = {
    "ratgeom.feasible": _fm_rows,
    "ratgeom.solve": _fm_rows,
    "cells.enumerate_cells": _length,
    "frobenius.decompose_root": _points,
    "svg.render_svg_2d": _polygons,
    "cli_io.serialize_report": _length,
}

PER_OP_S = "s/op"
PER_OP = "1/op"

# name -> unit, in the order they are reported
LAYER_METRICS = {
    "ratgeom.fm_calls": PER_OP,
    "ratgeom.fm_s": PER_OP_S,
    "ratgeom.fm_rows_in": PER_OP,
    "ratgeom.lattice_calls": PER_OP,
    "ratgeom.lattice_s": PER_OP_S,
    "ratgeom.rank_calls": PER_OP,
    "ratgeom.rank_s": PER_OP_S,
    "cone.build_s": PER_OP_S,
    "chambers.classes_s": PER_OP_S,
    "chambers.feasible_calls": PER_OP,
    "chambers.chamber_of_calls": PER_OP,
    "chambers.canonical_calls": PER_OP,
    "cells.enumerate_s": PER_OP_S,
    "cells.cells_found": PER_OP,
    "cells.fm_per_cell": "ratio",
    "cells.sign_calls": PER_OP,
    "cells.sign_s": PER_OP_S,
    "complexes.complex_s": PER_OP_S,
    "complexes.acyclicity_s": PER_OP_S,
    "complexes.points_checked": PER_OP,
    "complexes.homology_calls": PER_OP,
    "complexes.homology_s": PER_OP_S,
    "complexes.resolution_s": PER_OP_S,
    "complexes.nccr_s": PER_OP_S,
    "complexes.smith_s": PER_OP_S,
    "homs.hom_calls": PER_OP,
    "frobenius.decompose_s": PER_OP_S,
    "frobenius.points": PER_OP,
    "frobenius.minimal_q_s": PER_OP_S,
    "svg.render_s": PER_OP_S,
    "svg.polygons": PER_OP,
    "cli_io.parse_s": PER_OP_S,
    "cli_io.analyze_self_s": PER_OP_S,
    "cli_io.serialize_s": PER_OP_S,
    "cli_io.report_bytes": PER_OP,
    **{f"{layer}.self_s": PER_OP_S for layer in TRACED},
    "cache.hits": PER_OP,
    "cache.misses": PER_OP,
    "cache.hit_ratio": "ratio",
    "cache.entries_peak": "count",
    "trace.spans": PER_OP,
    "trace.op_s.p50": "s",
}

# name -> (spans it sums, how): "count", "self", "incl" (outermost spans
# of the group only), "n" (the counter value)
_SUMS = {
    "ratgeom.fm_calls": (FM, "count"),
    "ratgeom.fm_s": (FM, "self"),
    "ratgeom.fm_rows_in": (FM, "n"),
    "ratgeom.lattice_calls": (LATTICE, "count"),
    "ratgeom.lattice_s": (LATTICE, "self"),
    "ratgeom.rank_calls": (RANK, "count"),
    "ratgeom.rank_s": (RANK, "self"),
    "cone.build_s": (BUILD, "incl"),
    "chambers.classes_s": (("chambers.enumerate_classes",), "incl"),
    "chambers.feasible_calls": (("chambers.is_feasible",), "count"),
    "chambers.chamber_of_calls": (("chambers.chamber_of",), "count"),
    "chambers.canonical_calls": (("chambers.canonical_class",), "count"),
    "cells.enumerate_s": (("cells.enumerate_cells",), "incl"),
    "cells.sign_calls": (("cells.incidence_sign",), "count"),
    "cells.sign_s": (("cells.incidence_sign",), "incl"),
    "complexes.complex_s": (("complexes.conic_complex",), "self"),
    "complexes.acyclicity_s": (("complexes.verify_acyclicity",), "incl"),
    "complexes.points_checked": (("complexes.graded_piece",), "count"),
    "complexes.homology_calls": (("complexes.homology_ranks",), "count"),
    "complexes.homology_s": (("complexes.homology_ranks",), "incl"),
    "complexes.resolution_s": (("complexes.resolution",), "incl"),
    "complexes.nccr_s": (("complexes.nccr_verdict",), "incl"),
    "complexes.smith_s": (("complexes.smith_invariants",), "incl"),
    "homs.hom_calls": (tuple(f"homs.{f}" for f in TRACED["homs"]), "count"),
    "frobenius.decompose_s": (("frobenius.decompose_root",), "incl"),
    "frobenius.points": (("frobenius.decompose_root",), "n"),
    "frobenius.minimal_q_s": (("frobenius.minimal_complete_q",), "incl"),
    "svg.render_s": (("svg.render_svg_2d",), "incl"),
    "svg.polygons": (("svg.render_svg_2d",), "n"),
    "cli_io.parse_s": (("cli_io.parse_input",), "incl"),
    "cli_io.analyze_self_s": (("cli_io.analyze",), "self"),
    "cli_io.serialize_s": (("cli_io.serialize_report",), "incl"),
    "cli_io.report_bytes": (("cli_io.serialize_report",), "n"),
    **{f"{layer}.self_s": (tuple(f"{layer}.{f}" for f in fs), "self")
       for layer, fs in TRACED.items()},
}

_ARRAYS = (("name", "i"), ("start", "d"), ("end", "d"), ("parent", "i"),
           ("n", "q"))


class Tracer:
    """Records spans for one process.  Create one, ``install`` it, then
    bracket each op with ``begin_op`` / ``take``."""

    def __init__(self):
        self.names: list[str] = []
        self.op = -1
        self._reset()

    def _reset(self):
        self.cols = {key: array(code) for key, code in _ARRAYS}
        self.stack = [-1]

    def install(self, package) -> None:
        originals = {}
        for layer, funcs in TRACED.items():
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for fname in funcs:
                orig = getattr(mod, fname)
                originals[id(orig)] = self._wrap(f"{layer}.{fname}", orig)
        for modname, mod in list(sys.modules.items()):
            if modname != package.__name__ and not modname.startswith(
                    package.__name__ + "."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _wrap(self, name, func):
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            cols = self.cols
            stack = self.stack
            idx = len(cols["name"])
            cols["name"].append(name_id)
            cols["parent"].append(stack[-1])
            cols["end"].append(0.0)
            cols["n"].append(0)
            stack.append(idx)
            cols["start"].append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                cols["end"][idx] = perf_counter()
                stack.pop()
            if counter is not None:
                cols["n"][idx] = counter(args, result)
            return result

        return functools.wraps(func)(traced)

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._reset()

    def take(self) -> dict:
        """Spans of the current op as a JSON-safe chunk; clears the buffer."""
        chunk = {"op": self.op}
        for key, _ in _ARRAYS:
            chunk[key] = base64.b64encode(self.cols[key].tobytes()).decode()
        self._reset()
        return chunk


def decode(chunk) -> dict:
    cols = {"op": chunk["op"]}
    for key, code in _ARRAYS:
        arr = array(code)
        arr.frombytes(base64.b64decode(chunk[key]))
        cols[key] = arr
    return cols


def layer_metrics(names: list[str], chunks: list[dict], ops: int) -> dict:
    """Per-op layer metrics from decoded span chunks of ``ops`` ops."""
    by_name: dict[int, list] = {}
    for metric, (members, how) in _SUMS.items():
        ids = frozenset(names.index(m) for m in members if m in names)
        for i in ids:
            by_name.setdefault(i, []).append((metric, how, ids))
    fm_ids = {names.index(m) for m in FM}
    cells_id = names.index("cells.enumerate_cells")
    totals = dict.fromkeys(_SUMS, 0.0)
    fm_under_cells = 0
    cells_found = 0
    spans = 0
    for cols in chunks:
        name, start, end, parent, n = (cols[k] for k, _ in _ARRAYS)
        size = len(name)
        spans += size
        dur = [end[i] - start[i] for i in range(size)]
        child = [0.0] * size
        ancestors = [frozenset()] * size
        for i in range(size):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                ancestors[i] = ancestors[p] | {name[p]}
        fm_below = [False] * size
        for i in range(size - 1, -1, -1):
            if (name[i] in fm_ids or fm_below[i]) and parent[i] >= 0:
                fm_below[parent[i]] = True
        for i in range(size):
            nid = name[i]
            if nid in fm_ids and cells_id in ancestors[i]:
                fm_under_cells += 1
            if nid == cells_id and fm_below[i]:
                cells_found += n[i]
            for metric, how, ids in by_name.get(nid, ()):
                if how == "count":
                    totals[metric] += 1
                elif how == "n":
                    totals[metric] += n[i]
                elif how == "self":
                    totals[metric] += dur[i] - child[i]
                elif not ids & ancestors[i]:
                    totals[metric] += dur[i]
    per_op = max(ops, 1)
    out = {metric: value / per_op for metric, value in totals.items()}
    out["cells.cells_found"] = cells_found / per_op
    out["cells.fm_per_cell"] = fm_under_cells / cells_found if cells_found else 0.0
    out["trace.spans"] = spans / per_op
    return out


def write_spans(path: Path, names: list[str], chunks: list[dict]) -> None:
    """One JSON line per span: name, start, end, parent index, op id."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for cols in chunks:
            name, start, end, parent = (cols[k] for k in ("name", "start", "end", "parent"))
            for i in range(len(name)):
                fh.write(json.dumps([names[name[i]], start[i], end[i],
                                     parent[i], cols["op"]]) + "\n")
