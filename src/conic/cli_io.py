"""Input parsing, analysis reports, and the command line front end.

Input is a small JSON schema naming the cone by exactly one of its
three presentations.  Reports are plain dicts serialized with sorted
keys so identical input gives identical bytes; the human rendering is
derived from the same dict.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .cells import (cell_census, cell_witnesses, chamber_gate, class_of,
                    class_pattern, enumerate_cells, open_conic,
                    pattern_census)
from .chambers import degree, enumerate_classes
from .complexes import (
    _acyclicity,
    _complex,
    _window_points,
    _window_radius,
    global_dimension,
    nccr_verdict,
    resolution,
)
from .cone import (
    ConeSpec,
    content_hash,
    from_dual_rays,
    from_normals,
    from_primal_rays,
)
from .errors import (
    InputError,
    InternalInvariantError,
    SupportNotClosedError,
    UnsupportedOperationError,
)
from .frobenius import (
    _characteristic,
    _root_index,
    decompose_root,
    dmodule_report,
    minimal_complete_q,
)
from .ratgeom import intvec
from .svg import render_svg_2d

SCHEMA_VERSION = 2


@dataclass(frozen=True)
class ConeInput:
    """Validated input: rank plus exactly one cone presentation."""

    rank: int
    normals: tuple | None = None
    dual_rays: tuple | None = None
    primal_rays: tuple | None = None
    labels: tuple | None = None


@dataclass(frozen=True)
class AnalyzeOptions:
    """Optional extras folded into the full analysis report."""

    acyclicity_radius: int | None = None
    frobenius_q: int | None = None
    frobenius_minimal: bool = False
    dmodule_prime: int | None = None
    supports: tuple = ()


def parse_input(text: str) -> ConeInput:
    """Parse and validate the JSON cone description."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise InputError(
            f"invalid JSON at line {err.lineno} column {err.colno}: "
            f"{err.msg}") from None
    if not isinstance(data, dict):
        raise InputError("input must be a JSON object")
    known = {"rank", "normals", "dual_rays", "primal_rays", "labels"}
    for key in data:
        if key not in known:
            raise InputError(f"unknown field {key!r}")
    rank = data.get("rank")
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
        raise InputError("field 'rank' must be a positive integer")
    given = [f for f in ("normals", "dual_rays", "primal_rays") if f in data]
    if len(given) != 1:
        raise InputError(
            "exactly one of 'normals', 'dual_rays', 'primal_rays' "
            "must be given")
    fieldname = given[0]
    rows = data[fieldname]
    if not isinstance(rows, list) or not rows:
        raise InputError(f"field {fieldname!r} must be a nonempty list")
    vecs = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != rank:
            raise InputError(
                f"entry {i} of {fieldname!r} must be a list of length {rank}")
        for x in row:
            if not isinstance(x, int) or isinstance(x, bool):
                raise InputError(
                    f"entry {i} of {fieldname!r} has a non-integer value")
        vecs.append(tuple(row))
    labels = None
    if "labels" in data:
        raw = data["labels"]
        if (not isinstance(raw, list)
                or len(raw) != len(vecs)
                or not all(isinstance(s, str) for s in raw)):
            raise InputError(
                "field 'labels' must list one string per input vector")
        labels = tuple(raw)
    kwargs = {fieldname: tuple(vecs)}
    return ConeInput(rank=rank, labels=labels, **kwargs)


def build_cone(inp: ConeInput) -> ConeSpec:
    if inp.normals is not None:
        return from_normals(inp.rank, inp.normals)
    if inp.dual_rays is not None:
        return from_dual_rays(inp.rank, inp.dual_rays)
    return from_primal_rays(inp.rank, inp.primal_rays)


def _num(x):
    # JSON-friendly exact number: int when integral, else "p/q".
    f = Fraction(x)
    return int(f) if f.denominator == 1 else str(f)


def _vec(v) -> list:
    return [_num(x) for x in v]


def analyze(spec: ConeSpec, options: AnalyzeOptions = AnalyzeOptions()) -> dict:
    """Full analysis report as a plain JSON-serializable dict."""
    _check_options(spec, options.acyclicity_radius, options.frobenius_q,
                   options.dmodule_prime)
    classes = enumerate_classes(spec)
    class_rows = []
    for rep in classes.reps:
        # The representatives are chambers, so each class's answers are
        # read off its pattern with no gate: the census, pdim (the last
        # codim) and a zero cell (last codim == rank).
        pattern = class_pattern(spec, rep)
        census = pattern_census(pattern)
        label = classes.label_of(rep)
        top = pattern[-1][1]
        class_rows.append({
            "label": label,
            "ceiling": list(rep),
            "degree": degree(rep),
            "cell_census": {str(k): v for k, v in sorted(census.items())},
            "pdim": top,
            "has_zero_cell": top == spec.rank,
        })
    report = {
        "schema_version": SCHEMA_VERSION,
        "content_hash": content_hash(spec),
        "cone": {
            "rank": spec.rank,
            "normals": [list(n) for n in spec.normals],
            "simplicial": spec.simplicial,
        },
        "classes": class_rows,
        "class_count": len(classes.reps),
        "global_dimension": global_dimension(spec),
        # every chamber complex is exact over Z (``complexes``), so every
        # Smith invariant is 1
        "smith": {"all_trivial": True, "nontrivial": []},
        "nccr": _nccr_block(spec, classes),
        "warnings": [],
    }
    if options.acyclicity_radius is not None:
        pairs = _acyclicity_rows(spec, classes, options.acyclicity_radius)
        report["acyclicity"] = {
            "radius": options.acyclicity_radius,
            "pairs": pairs,
            "all_passed": all(p["passed"] for p in pairs),
        }
    frob = _frobenius_block(spec, classes, options.frobenius_q,
                            options.frobenius_minimal, options.dmodule_prime)
    if frob:
        report["frobenius"] = frob
    if options.supports:
        report["partial_supports"] = [
            _nccr_block(spec, classes,
                        tuple(_parse_class(spec, classes, s) for s in sup))
            for sup in options.supports]
    return report


def _check_options(spec: ConeSpec, window=None, q=None, prime=None) -> None:
    """Refuse a bad acyclicity window, root index or characteristic
    before any walk, with the messages of the checks that use them;
    support labels need the class list and are read later."""
    if window is not None:
        _window_points(spec, _window_radius(window))
    if q is not None:
        _root_index(spec, q)
    if prime is not None:
        _characteristic(prime)


def _nccr_block(spec: ConeSpec, classes, support=None) -> dict:
    v = nccr_verdict(spec, support=support)
    return {
        "verdict": v.verdict,
        "support": [classes.label_of(r) for r in v.support],
        "complete": v.complete,
        "witness": None if v.witness is None else classes.label_of(v.witness),
        "reasons": list(v.reasons),
    }


def _acyclicity_rows(spec: ConeSpec, classes, window) -> list:
    rows = []
    for a in classes.reps:
        pattern = class_pattern(spec, class_of(spec, a))
        for b in classes.reps:
            rpt = _acyclicity(spec, a, pattern, b, window)
            rows.append({
                "chamber": classes.label_of(a),
                "other": classes.label_of(b),
                "radius": rpt.radius,
                "checked": rpt.checked,
                "hits": len(rpt.hits),
                "failures": len(rpt.failures),
                "passed": rpt.passed,
            })
    return rows


def _frobenius_block(spec: ConeSpec, classes, q, minimal: bool, prime) -> dict:
    frob = {}
    if q is not None:
        frob["q"] = _root_block(spec, classes, q)
    rpt = None if prime is None else dmodule_report(spec, prime)
    if minimal:
        qmin = minimal_complete_q(spec) if rpt is None else rpt.minimal_q
        frob["minimal_complete_q"] = qmin
        frob["at_minimal_q"] = _root_block(spec, classes, qmin)
    if rpt is not None:
        frob["dmodule"] = {
            "p": rpt.p,
            "minimal_e": rpt.minimal_e,
            "q_at_e": rpt.q_at_e,
            "bounds": [rpt.bound_low, rpt.bound_high],
            "note": rpt.note,
        }
    return frob


def _root_block(spec: ConeSpec, classes, q: int) -> dict:
    dec = decompose_root(spec, q)
    counts = {classes.label_of(rep): n for rep, n in dec.counts}
    for rep in classes.reps:
        counts.setdefault(classes.label_of(rep), 0)
    return {"q": dec.q, "total": dec.total, "counts": counts}


def serialize_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _parse_class(spec: ConeSpec, classes, text: str):
    """A class argument: a label like A1, or a comma-separated ceiling."""
    s = text.strip()
    if s in classes.labels:
        return classes.rep_of(s)
    try:
        vec = intvec(int(p) for p in s.split(","))
    except ValueError:
        raise InputError(
            f"unknown class {text!r}: give a label or a ceiling vector"
        ) from None
    if len(vec) != len(spec.normals):
        raise InputError(
            f"ceiling vector {text!r} needs {len(spec.normals)} entries")
    _, rep, pattern = chamber_gate(spec, vec)
    if not pattern:
        raise InputError(f"ceiling vector {text!r} is not a chamber")
    return rep


def _support_parts(text: str) -> tuple[str, ...]:
    """The class labels of a --support value; empty parts are dropped."""
    return tuple(part for part in text.split(",") if part)


def _parse_support(spec: ConeSpec, classes, text: str):
    return tuple(_parse_class(spec, classes, part) for part in _support_parts(text))


# --------------------------------------------------------------------------
# command implementations


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise InputError(f"cannot read input file {path!r}: {err}") from None


def _load_spec(args) -> ConeSpec:
    # kept on args, so that an invariant error can name the cone
    args.spec = build_cone(parse_input(_read_input(args.input)))
    return args.spec


def _emit(args, report: dict, text: str) -> str:
    return serialize_report(report) if args.json else text


def _cmd_analyze(args) -> str:
    spec = _load_spec(args)
    supports = tuple(_support_parts(s) for s in args.support or ())
    options = AnalyzeOptions(
        acyclicity_radius=args.window,
        frobenius_q=args.q,
        frobenius_minimal=args.minimal_q,
        dmodule_prime=args.dmodule,
        supports=supports,
    )
    report = analyze(spec, options)
    lines = []
    cone = report["cone"]
    lines.append(f"rank {cone['rank']} cone, "
                 f"{len(cone['normals'])} facet normals"
                 + (" (simplicial)" if cone["simplicial"] else ""))
    lines.append(f"content hash {report['content_hash'][:16]}")
    lines.append(f"classes: {report['class_count']}")
    for row in report["classes"]:
        census = " ".join(
            f"{k}:{v}" for k, v in sorted(row["cell_census"].items(),
                                          key=lambda kv: int(kv[0])))
        lines.append(
            f"  {row['label']} ceiling {tuple(row['ceiling'])} "
            f"degree {row['degree']} pdim {row['pdim']} cells [{census}]")
    lines.append(f"global dimension: {report['global_dimension']}")
    lines.append("smith invariants: all trivial")
    nccr = report["nccr"]
    lines.append(f"nccr ({'complete' if nccr['complete'] else 'partial'} "
                 f"support): {nccr['verdict']}")
    for reason in nccr["reasons"]:
        lines.append(f"  {reason}")
    if "acyclicity" in report:
        acy = report["acyclicity"]
        word = "passed" if acy["all_passed"] else "FAILED"
        lines.append(f"acyclicity over radius {acy['radius']}: {word} "
                     f"({len(acy['pairs'])} ordered pairs)")
    if "frobenius" in report:
        frob = report["frobenius"]
        if "q" in frob:
            lines.append(f"frobenius q={frob['q']['q']}: "
                         + _counts_text(frob["q"]["counts"]))
        if "minimal_complete_q" in frob:
            lines.append(
                f"minimal complete q: {frob['minimal_complete_q']}")
        if "dmodule" in frob:
            dm = frob["dmodule"]
            lines.append(
                f"dmodule p={dm['p']}: e={dm['minimal_e']}, "
                f"global dimension in [{dm['bounds'][0]}, {dm['bounds'][1]}]")
    for row in report.get("partial_supports", ()):
        lines.append(
            f"support {{{', '.join(row['support'])}}}: {row['verdict']}")
    return _emit(args, report, "\n".join(lines) + "\n")


def _counts_text(counts: dict) -> str:
    return " ".join(f"{k}:{v}" for k, v in sorted(counts.items()))


def _cmd_chambers(args) -> str:
    spec = _load_spec(args)
    classes = enumerate_classes(spec)
    rows = [{
        "label": classes.label_of(rep),
        "ceiling": list(rep),
        "degree": degree(rep),
    } for rep in classes.reps]
    report = _wrap(spec, {"classes": rows, "class_count": len(rows)})
    text = "".join(
        f"{r['label']} ceiling {tuple(r['ceiling'])} degree {r['degree']}\n"
        for r in rows)
    return _emit(args, report, text)


def _cmd_cells(args) -> str:
    spec = _load_spec(args)
    classes = enumerate_classes(spec)
    rep = _parse_class(spec, classes, args.cls)
    rows = []
    for cell, witness in zip(enumerate_cells(spec, rep), cell_witnesses(spec, rep)):
        rows.append({
            "omega": list(cell.omega),
            "codim": cell.codim,
            "witness": _vec(witness),
            "open_conic": list(open_conic(cell)),
            "class": classes.label_of(class_of(spec, open_conic(cell))),
        })
    census = {str(k): v for k, v in sorted(cell_census(spec, rep).items())}
    report = _wrap(spec, {"chamber": list(rep),
                          "label": classes.label_of(rep),
                          "cells": rows, "census": census})
    text = "".join(
        f"codim {r['codim']} omega {tuple(r['omega'])} "
        f"open_conic {tuple(r['open_conic'])} class {r['class']} "
        f"witness ({', '.join(str(w) for w in r['witness'])})\n"
        for r in rows)
    return _emit(args, report, text)


def _cmd_complex(args) -> str:
    spec = _load_spec(args)
    classes = enumerate_classes(spec)
    rep = _parse_class(spec, classes, args.cls)
    cx = _complex(spec, rep)
    terms = [[{"open_conic": list(vec),
               "class": classes.label_of(class_of(spec, vec))}
              for vec in row] for row in cx.terms]
    mats = [[list(r) for r in m] for m in cx.mats]
    report = _wrap(spec, {"chamber": list(rep),
                          "label": classes.label_of(rep),
                          "terms": terms, "differentials": mats})
    lines = []
    for i, row in enumerate(terms):
        summands = ", ".join(
            f"{t['class']}{tuple(t['open_conic'])}" for t in row)
        lines.append(f"degree {i}: {summands}")
    for i, m in enumerate(mats):
        lines.append(f"d[{i + 1} -> {i}] = {m}")
    return _emit(args, report, "\n".join(lines) + "\n")


def _cmd_resolution(args) -> str:
    spec = _load_spec(args)
    _check_options(spec, window=args.window)
    classes = enumerate_classes(spec)
    rep = _parse_class(spec, classes, args.cls)
    support = _parse_support(spec, classes, args.support)
    rpt = resolution(spec, support, rep, window=args.window)
    terms = [[{"class": classes.label_of(r), "multiplicity": n}
              for r, n in row] for row in rpt.terms]
    report = _wrap(spec, {
        "chamber": list(rep),
        "label": classes.label_of(rep),
        "support": [classes.label_of(r) for r in rpt.support],
        "terms": terms,
        "length": rpt.length,
        "spliced": rpt.spliced,
        "validated_radius": rpt.validated_radius,
    })
    lines = [f"resolution of {classes.label_of(rep)} over "
             f"{{{', '.join(classes.label_of(r) for r in rpt.support)}}}: "
             f"length {rpt.length}"
             + (" (spliced)" if rpt.spliced else "")]
    for i, row in enumerate(terms):
        body = " + ".join(
            f"{t['multiplicity']}*{t['class']}" for t in row) or "0"
        lines.append(f"degree {i}: {body}")
    if rpt.validated_radius is not None:
        lines.append(f"validated by acyclicity up to radius "
                     f"{rpt.validated_radius}")
    return _emit(args, report, "\n".join(lines) + "\n")


def _cmd_acyclicity(args) -> str:
    spec = _load_spec(args)
    _check_options(spec, window=args.window)
    rows = _acyclicity_rows(spec, enumerate_classes(spec), args.window)
    report = _wrap(spec, {
        "pairs": rows, "all_passed": all(r["passed"] for r in rows)})
    text = "".join(
        f"{r['chamber']} vs {r['other']}: radius {r['radius']}, "
        f"{r['checked']} points, {r['failures']} failures, "
        f"{'passed' if r['passed'] else 'FAILED'}\n"
        for r in rows)
    return _emit(args, report, text)


def _cmd_nccr(args) -> str:
    spec = _load_spec(args)
    classes = enumerate_classes(spec)
    support = (None if args.support is None
               else _parse_support(spec, classes, args.support))
    body = _nccr_block(spec, classes, support)
    report = _wrap(spec, body)
    lines = [f"verdict: {body['verdict']}"]
    if body["witness"] is not None:
        lines.append(f"witness: {body['witness']}")
    lines.extend(f"  {r}" for r in body["reasons"])
    return _emit(args, report, "\n".join(lines) + "\n")


def _cmd_frobenius(args) -> str:
    spec = _load_spec(args)
    _check_options(spec, q=args.q, prime=args.dmodule)
    body = _frobenius_block(spec, enumerate_classes(spec), args.q,
                            args.minimal, args.dmodule)
    lines = []
    if "q" in body:
        lines.append(f"q={body['q']['q']}: "
                     + _counts_text(body["q"]["counts"]))
    if "minimal_complete_q" in body:
        lines.append(f"minimal complete q: {body['minimal_complete_q']}")
        lines.append(f"q={body['minimal_complete_q']}: "
                     + _counts_text(body["at_minimal_q"]["counts"]))
    if "dmodule" in body:
        dm = body["dmodule"]
        lines.append(
            f"p={dm['p']}: minimal e with p^e complete is {dm['minimal_e']} "
            f"(q={dm['q_at_e']}); differential operator global dimension "
            f"in [{dm['bounds'][0]}, {dm['bounds'][1]}]")
        lines.append(dm["note"])
    report = _wrap(spec, body)
    return _emit(args, report, "\n".join(lines) + "\n")


def _cmd_svg(args) -> str:
    spec = _load_spec(args)
    doc = render_svg_2d(spec, args.window.split(","))
    if args.out is not None:
        try:
            Path(args.out).write_text(doc, encoding="utf-8")
        except OSError as err:
            raise InputError(f"cannot write output file {args.out!r}: {err}") from None
        return f"wrote {args.out}\n"
    return doc


def _wrap(spec: ConeSpec, body: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "content_hash": content_hash(spec), **body}


# --------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through InputError
    # instead so the documented exit codes hold (2 means invariant failure).
    def error(self, message):
        raise InputError(message)


def _parser() -> _Parser:
    source = _Parser(add_help=False)
    source.add_argument(
        "--input", default="-", metavar="FILE",
        help="JSON cone description ('-' for stdin)")
    common = _Parser(add_help=False, parents=[source])
    common.add_argument(
        "--json", action="store_true", help="emit the JSON report")
    top = _Parser(prog="conic",
                  description="chamber combinatorics of a toric cone")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="full report on the cone")
    p.add_argument("--window", type=int, default=None,
                   help="run the acyclicity check at this radius")
    p.add_argument("--q", type=int, default=None,
                   help="include the order-q Frobenius decomposition")
    p.add_argument("--minimal-q", action="store_true",
                   help="include the minimal complete Frobenius order")
    p.add_argument("--dmodule", type=int, default=None, metavar="P",
                   help="include the differential operator report at prime P")
    p.add_argument("--support", action="append", metavar="CLASSES",
                   help="partial support to test, e.g. A0,A1 (repeatable)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("chambers", parents=[common],
                       help="list the chamber classes")
    p.set_defaults(func=_cmd_chambers)

    p = sub.add_parser("cells", parents=[common],
                       help="cells of one chamber class")
    p.add_argument("cls", metavar="CLASS",
                   help="class label (A1) or ceiling vector (0,0,0,-1)")
    p.set_defaults(func=_cmd_cells)

    p = sub.add_parser("complex", parents=[common],
                       help="conic chain complex of one class")
    p.add_argument("cls", metavar="CLASS")
    p.set_defaults(func=_cmd_complex)

    p = sub.add_parser("resolution", parents=[common],
                       help="resolution of a class over a summand support")
    p.add_argument("--support", required=True, metavar="CLASSES",
                   help="comma-separated class labels, e.g. A0,A1")
    p.add_argument("--window", type=int, default=None,
                   help="validation radius for spliced complexes")
    p.add_argument("cls", metavar="CLASS")
    p.set_defaults(func=_cmd_resolution)

    p = sub.add_parser("acyclicity", parents=[common],
                       help="verify slice exactness on a window")
    p.add_argument("--window", type=int, default=None,
                   help="window radius (defaults per pair)")
    p.set_defaults(func=_cmd_acyclicity)

    p = sub.add_parser("nccr", parents=[common],
                       help="noncommutative crepant resolution verdict")
    p.add_argument("--support", default=None, metavar="CLASSES",
                   help="partial support (default: all classes)")
    p.set_defaults(func=_cmd_nccr)

    p = sub.add_parser("frobenius", parents=[common],
                       help="Frobenius root decompositions")
    p.add_argument("--q", type=int, default=None,
                   help="decompose the order-q root")
    p.add_argument("--minimal", action="store_true",
                   help="find the minimal complete order")
    p.add_argument("--dmodule", type=int, default=None, metavar="P",
                   help="differential operator report at prime P")
    p.set_defaults(func=_cmd_frobenius)

    p = sub.add_parser("svg", parents=[source],
                       help="render the rank-2 chamber decomposition")
    p.add_argument("--window", required=True, metavar="X0,X1,Y0,Y1",
                   help="rational window, e.g. -2,2,-2,2")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write the SVG here instead of stdout")
    p.set_defaults(func=_cmd_svg)
    return top


def main(argv=None) -> int:
    args = None
    try:
        args = _parser().parse_args(argv)
        if getattr(args, "command", None) == "frobenius" \
                and args.q is None and not args.minimal \
                and args.dmodule is None:
            raise InputError(
                "frobenius needs at least one of --q, --minimal, --dmodule")
        out = args.func(args)
    except SupportNotClosedError as err:
        print(f"error: {err}", file=sys.stderr)
        for cell in err.cells:
            print(f"  outside support: cell of chamber {cell.chamber}, "
                  f"omega {cell.omega}, open conic {tuple(open_conic(cell))}",
                  file=sys.stderr)
        return 1
    except (InputError, UnsupportedOperationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InternalInvariantError as err:
        spec = getattr(args, "spec", None)
        where = "" if spec is None else f" (cone {content_hash(spec)})"
        print(f"internal invariant violated: {err}{where}", file=sys.stderr)
        return 2
    if out:
        sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
