"""Benchmark of the exact chamber engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Runs from the root of a checkout.  Set-up is measured SETUPS times, each in
a fresh interpreter (CPU time from process start to ready-for-first-op);
the middle one of those processes then runs the ops, seconds * rate of
them, so the set-ups are spread over the run.  Op latency and set-up time
are CPU time scaled to the reference speed of ``speed.py``; raw CPU and
wall times and percentiles per op kind are printed alongside.  Every op
output is checked against the oracles.  Human-readable lines come first;
the last line is one JSON object with the keys correct, attempted, failed
and metrics: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from speed import REFERENCE_S
from worker import DEADLINE_FACTOR

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("reflexive_analyze", "acyclicity_session", "cyclic_frobenius",
                  "octahedron_cells")
SETUPS = 3
SETUP_TIMEOUT = 60
RUN_SLACK = 90

END_TO_END = {"op_s.p50": "s", "op_s.p90": "s", "setup_s": "s",
              "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


def _worker(workload, seed, seconds, trace, extra):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.Popen(cmd + extra, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)


def _ready(proc) -> tuple[float, float]:
    """Wait for the worker's ready line; return its set-up CPU seconds and
    the reference kernel's CPU seconds around the set-up."""
    waiting, _, _ = select.select([proc.stdout], [], [], SETUP_TIMEOUT)
    line = proc.stdout.readline().split() if waiting else []
    if len(line) != 3 or line[0] != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker failed during set-up (exit {proc.poll()})")
    return float(line[1]), float(line[2])


def measure(workload, seed, seconds, trace) -> dict:
    """Run SETUPS timed set-ups; the middle one goes on to run the ops."""
    setups, scaled, walls = [], [], []
    for k in range(SETUPS):
        runs_ops = k == SETUPS // 2
        start = perf_counter()
        proc = _worker(workload, seed, seconds, trace,
                       [] if runs_ops else ["--setup-only"])
        try:
            cpu, kernel = _ready(proc)
            setups.append(cpu)
            scaled.append(cpu * REFERENCE_S / kernel)
            walls.append(perf_counter() - start)
            timeout = (DEADLINE_FACTOR * seconds + RUN_SLACK if runs_ops
                       else SETUP_TIMEOUT)
            out, _ = proc.communicate(timeout=timeout)
            if runs_ops:
                ops_out = out
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker for {workload} timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"worker for {workload} exited {proc.returncode}")
    summary = json.loads(ops_out.strip().splitlines()[-1])
    summary["setups"], summary["setup_walls"] = setups, walls
    summary["setups_scaled"] = scaled
    return summary


def end_to_end(summary) -> dict:
    lat = summary["op_scaled"]
    if len(lat) < 2:
        raise BenchError("fewer than two completed ops; cannot take percentiles")
    values = {
        "op_s.p50": statistics.median(lat),
        "op_s.p90": _p90(lat),
        "setup_s": statistics.median(summary["setups_scaled"]),
        "peak_rss_mb": summary["peak_rss_kb"] / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(summary) -> dict:
    from tracing import LAYER_METRICS
    lat = summary["op_scaled"]
    values = {**summary["layers"], **summary["cache"],
              "trace.op_s.p50": statistics.median(lat) if lat else 0.0}
    return {k: {"value": values[k], "unit": u} for k, u in LAYER_METRICS.items()}


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else 0.0


def report(workload, seed, summary, metrics, trace) -> None:
    attempted = summary["attempted"]
    lat, cpu, wall = summary["op_scaled"], summary["op_cpu"], summary["op_wall"]
    errors = summary["errors"]
    beyond = sum(1 for x in lat if x > _p90(lat))
    print(f"== {workload} seed {seed}{' traced' if trace else ''}: "
          f"{attempted} ops attempted, {len(cpu)} completed, {len(errors)} failed")
    for kind, n in sorted(Counter(errors).items()):
        print(f"   failed: {n} x {kind}")
    print(f"   failed_frac {len(errors) / attempted:.4f} ratio "
          f"({len(errors)}/{attempted})")
    print(f"   cache.hit_ratio {summary['cache']['cache.hit_ratio']:.4f} ratio")
    kernel = summary["kernel"]
    print(f"   reference kernel {statistics.median(kernel):.6g} s CPU "
          f"(min {min(kernel):.6g}, max {max(kernel):.6g}, n={len(kernel)}), "
          f"{REFERENCE_S} s at reference speed")
    for label, times, setup in (("CPU", cpu, summary["setups"]),
                                ("wall", wall, summary["setup_walls"])):
        if times:
            print(f"   unscaled {label} op_s.p50 {statistics.median(times):.6g} s, "
                  f"op_s.p90 {_p90(times):.6g} s; setup_s "
                  f"{statistics.median(setup):.6g} s")
    for name, m in metrics.items():
        note = ""
        if name.startswith("op_s."):
            note = f"  (scaled CPU time, n={len(lat)} completed ops"
            note += f", {beyond} beyond)" if name.endswith("p90") else ")"
        elif name == "setup_s":
            note = f"  (scaled CPU time, median of {len(summary['setups'])} set-ups)"
        print(f"   {name} {m['value']:.6g} {m['unit']}{note}")
    kinds = sorted(set(summary["op_kind"]))
    for kind in kinds if len(kinds) > 1 else ():
        part = [x for x, k in zip(lat, summary["op_kind"]) if k == kind]
        print(f"   {kind} ops: op_s.p50 {statistics.median(part):.6g} s, "
              f"op_s.p90 {_p90(part):.6g} s (scaled CPU time, n={len(part)})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for name in names:
            summary = measure(name, args.seed, args.seconds, args.trace)
            found = per_layer(summary) if args.trace else end_to_end(summary)
            report(name, args.seed, summary, found, args.trace)
            correct &= not any(e.startswith("check:") for e in summary["errors"])
            attempted += summary["attempted"]
            failed += len(summary["errors"])
            prefix = f"{name}/" if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in found.items()})
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
