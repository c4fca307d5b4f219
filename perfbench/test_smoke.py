"""Smoke test of the benchmark itself: every workload at a tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each run prints a correct result whose metrics are exactly the
ones BENCHMARK.json names, with their units; that the traced run records
only the spans of the per-layer table and that its outputs match the
untraced run's; and that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def test_spec_matches_span_table():
    assert SPEC["per_layer"] == [
        {"name": n, "unit": u, "better": b} for n, u, b in spans.PER_LAYER
    ]
    layer_spans = {
        m.rpartition(".")[0] for m, _, _ in spans.PER_LAYER if not m.startswith("trace.")
    }
    assert layer_spans == set(spans.LAYERS) | {spans.REOBSERVE}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run(workload):
    details, result = parse(run_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and m["value"] > 0, name
    assert details["machine"]["blas_threads"] <= details["machine"]["nproc"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    details, result = parse(run_bench(workload, 1))
    assert result["correct"], details["problems"]  # includes the byte-identity check
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert set(details["spans"]) <= spans.span_names()
    assert result["metrics"]["trace.coverage"]["value"] >= 0.95


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
