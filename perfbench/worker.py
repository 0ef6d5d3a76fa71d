"""One benchmark process: set up a workload, then run its ops for a while.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                --trace 0|1 [--setup-only] [--max-ops K]

Prints ``ready``, the CPU seconds of set-up (interpreter, imports,
inputs, session) and the mean CPU seconds of the reference kernel timed
right before and right after it, as soon as set-up is done.  With
--setup-only it then exits; otherwise it runs the workload's first
round(S * rate) ops (or K ops) and prints one JSON summary line.  The op count is fixed rather than the time, so what a run
attempts, fails and leaves in the caches depends only on the seed; a run
takes about S seconds on the measuring machine and stops early only past
DEADLINE_FACTOR * S.  Each op's CPU time is also reported scaled by the
reference kernel (``speed``) timed around it: in the forked child right
before and after the op, or, for ops run in this process, between ops at
most KERNEL_EVERY seconds apart.

Forked workloads run each op in a child forked from this process, so
every op starts from the state the set-up left; at most one child exists
at a time.  For cold workloads that state has imported the engine and
built the inputs but run no analysis.  Other workloads run their ops
in-process after their session set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"
KERNEL_EVERY = 0.2
DEADLINE_FACTOR = 3


def import_engine():
    """Import ``conic`` from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import conic
    except ImportError as err:
        sys.exit(f"cannot import the engine from {SRC}: {err}")
    if not Path(conic.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"imported conic from {conic.__file__}, not from {SRC}")
    import conic.cli_io  # the package __init__ leaves the front end out
    return conic


def lru_caches() -> list:
    """Every functools cache in the engine, found from outside."""
    found = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "conic" or modname.startswith("conic."):
            for value in vars(mod).values():
                if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                    found[id(value)] = value
    return list(found.values())


def cache_totals(caches) -> tuple[int, int, int]:
    infos = [c.cache_info() for c in caches]
    return (sum(i.hits for i in infos), sum(i.misses for i in infos),
            sum(i.currsize for i in infos))


def execute(workload, conic, session, op, op_id, tracer, caches,
            bracket=False) -> dict:
    """Run one op, check its output, and describe it as a JSON-safe dict.
    With ``bracket`` the reference kernel is timed right before and after
    the op, outside its latency."""
    kernel = speed.sample() if bracket else None
    hits0, misses0, _ = cache_totals(caches)
    if tracer is not None:
        tracer.begin_op(op_id)
    rec = {"op": op_id, "kind": op.kind, "error": None, "digest": None}
    start, cpu = perf_counter(), process_time()
    try:
        out = workload.run(conic, session, op)
    except Exception as exc:  # an engine exception is a failed op, not a crash
        rec["latency"], rec["cpu"] = perf_counter() - start, process_time() - cpu
        rec["error"] = type(exc).__name__
    else:
        rec["latency"], rec["cpu"] = perf_counter() - start, process_time() - cpu
        problem = workload.check(op, out)
        if problem is not None:
            rec["error"] = f"check: {problem}"
        rec["digest"] = workload.digest(out)
    hits, misses, size = cache_totals(caches)
    rec["cache"] = [hits - hits0, misses - misses0, size]
    if bracket:
        rec["kernel"] = (kernel + speed.sample()) / 2
    rec["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        rec["spans"] = tracer.take()
    return rec


def execute_forked(workload, conic, session, op, op_id, tracer, caches,
                   entries) -> dict:
    *_, size = cache_totals(caches)
    if size != entries:
        raise RuntimeError(f"state guard: {size} cache entries before fork, "
                           f"{entries} after set-up")
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            rec = execute(workload, conic, session, op, op_id, tracer, caches,
                          bracket=True)
            with os.fdopen(wfd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(rec))
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "r", encoding="utf-8") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"op {op_id} child exited with status {status}")
    return json.loads(data)


def run(workload, conic, session, ops, seconds, max_ops, tracer, caches) -> dict:
    ops = ops[:max_ops or max(2, round(seconds * workload.rate))]
    records = []
    chunks = []
    marks = []
    entries_peak = 0
    *_, entries = cache_totals(caches)
    if workload.cold and entries:
        raise RuntimeError(f"cold-state guard: set-up left {entries} cache entries")
    deadline = perf_counter() + DEADLINE_FACTOR * seconds
    sampled = -KERNEL_EVERY
    for op_id, op in enumerate(ops):
        now = perf_counter()
        if now >= deadline:
            break
        if not workload.forked and now - sampled >= KERNEL_EVERY:
            marks.append((len(records), speed.sample()))
            sampled = perf_counter()
        if workload.forked:
            rec = execute_forked(workload, conic, session, op, op_id, tracer,
                                 caches, entries)
        else:
            rec = execute(workload, conic, session, op, op_id, tracer, caches)
        if "spans" in rec:
            chunks.append(rec.pop("spans"))
        entries_peak = max(entries_peak, rec["cache"][2])
        records.append(rec)
    if not workload.forked:
        marks.append((len(records), speed.sample()))
        for rec, kernel in zip(records, speed.around(marks)):
            rec["kernel"] = kernel
    for rec in records:
        rec["scaled"] = rec["cpu"] * speed.REFERENCE_S / rec["kernel"]
    return {"records": records, "chunks": chunks, "entries_peak": entries_peak}


def summarize(name, result, tracer) -> dict:
    records = result["records"]
    hits = sum(r["cache"][0] for r in records)
    misses = sum(r["cache"][1] for r in records)
    ops = len(records)
    summary = {
        "attempted": ops,
        "op_scaled": [r["scaled"] for r in records if r["error"] is None],
        "op_cpu": [r["cpu"] for r in records if r["error"] is None],
        "op_wall": [r["latency"] for r in records if r["error"] is None],
        "op_kind": [r["kind"] for r in records if r["error"] is None],
        "errors": [r["error"] for r in records if r["error"] is not None],
        "digests": [[r["op"], r["digest"]] for r in records],
        "peak_rss_kb": max((r["rss_kb"] for r in records), default=0),
        "kernel": [r["kernel"] for r in records],
        "cache": {
            "cache.hits": hits / max(ops, 1),
            "cache.misses": misses / max(ops, 1),
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cache.entries_peak": result["entries_peak"],
        },
    }
    if tracer is not None:
        from tracing import decode, layer_metrics, write_spans
        chunks = [decode(c) for c in result["chunks"]]
        summary["layers"] = layer_metrics(tracer.names, chunks, ops)
        write_spans(SPAN_DIR / f"spans_{name}.jsonl.gz", tracer.names, chunks)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--max-ops", type=int)
    args = parser.parse_args(argv)

    # The kernel is timed around the set-up, its own CPU time left out; the
    # first call in a fresh interpreter runs slow and is not counted.
    before = process_time()
    speed.sample()
    kernel_before = speed.sample()
    excluded = process_time() - before
    conic = import_engine()
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    caches = lru_caches()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(conic)
    ops = workload.inputs(args.seed)
    session = workload.setup(conic)
    setup_cpu = process_time() - excluded
    kernel = (kernel_before + speed.sample()) / 2
    print(f"ready {setup_cpu} {kernel}", flush=True)
    if args.setup_only:
        return 0
    result = run(workload, conic, session, ops, args.seconds, args.max_ops,
                 tracer, caches)
    print(json.dumps(summarize(args.workload, result, tracer)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
