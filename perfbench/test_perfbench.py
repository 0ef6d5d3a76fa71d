"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

Tiny runs of every workload through the real worker process, seed
determinism of inputs and output digests, traced-equals-untraced outputs,
and an op count fixed by --seconds.  The oracles get a few spot checks against known values.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {"reflexive_analyze": 6, "acyclicity_session": 12,
        "cyclic_frobenius": 4, "octahedron_cells": 3}


def worker(name, seed, trace=0, ops=None, seconds=60):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if ops != 0:
        cmd += ["--max-ops", str(ops or TINY[name])]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                         timeout=170, check=True).stdout.splitlines()
    assert out[0].split()[0] == "ready"
    return json.loads(out[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    w = WORKLOADS[name]
    assert w.inputs(7) == w.inputs(7)
    assert w.inputs(7) != w.inputs(8)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_is_deterministic_and_tracing_changes_no_output(name):
    first = worker(name, 3)
    assert first["attempted"] == TINY[name]
    assert not [e for e in first["errors"] if e.startswith("check:")]
    assert worker(name, 3)["digests"] == first["digests"]
    traced = worker(name, 3, trace=1)
    assert traced["digests"] == first["digests"]
    assert traced["layers"]["trace.spans"] > 0


def test_op_count_is_set_by_seconds_and_rate():
    # 1 s of acyclicity_session is 60 ops however fast the machine runs
    # (short of the 3 s deadline), so equal seeds fill the caches alike.
    first = worker("acyclicity_session", 5, ops=0, seconds=1)
    assert first["attempted"] == round(WORKLOADS["acyclicity_session"].rate)
    again = worker("acyclicity_session", 5, ops=0, seconds=1)
    assert again["attempted"] == first["attempted"]
    assert again["digests"] == first["digests"]
    assert again["cache"] == first["cache"]
    assert len(first["op_scaled"]) == len(first["op_cpu"])
    assert all(k > 0 for k in first["kernel"])


def test_kernel_samples_around_ops():
    # ops 0-1 between the first two marks, op 2 between the last two
    assert speed.around([(0, 1.0), (2, 3.0), (3, 5.0)]) == [2.0, 2.0, 4.0]


def test_run_prints_contract_json():
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "cyclic_frobenius",
           "--seed", "1", "--seconds", "2", "--trace", "0"]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                         timeout=170, check=True).stdout.splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 2
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}


def test_oracles_on_known_cones():
    square = oracles.load_frozen()["session"]["square"]
    assert square["class_count"] == 3
    hexagon = [r for r in oracles.load_frozen()["reflexive"] if len(r["vertices"]) == 6]
    assert [r["class_count"] for r in hexagon] == [23]
    # 1/3(1,2): three classes; the four chambers of -v/2 meet all three,
    # the nine of -v/3 meet each three times
    cyclic = [(0, 1), (3, -2)]
    assert len(oracles.classes_bfs(cyclic)) == 3
    assert oracles.root_counts(cyclic, 2) == [1, 1, 2]
    assert oracles.root_counts(cyclic, 3) == [3, 3, 3]
    # The quadric's chambers in [-2, 2]^2: 14 lines x +- y = k, k = -3..3,
    # crossing inside at the 25 pairs with |k1 - k2| < 4 and |k1 + k2| < 4
    assert oracles.arrangement_regions([(1, 1), (-1, 1)], (-2, 2, -2, 2)) == 1 + 14 + 25
