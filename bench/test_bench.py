"""Tests of the benchmark itself, kept out of the package's test suite.

    python3 -m pytest bench/test_bench.py

Each workload runs at smoke-test size in both modes and must pass its checks
and emit exactly the metrics ``BENCHMARK.json`` declares, with their units.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH_DIR))

from spans import Tracer  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_passes_and_emits_every_metric(workload, trace):
    out = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--scale", "tiny")
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_tracer_self_time_and_restore():
    def inner():
        time.sleep(0.002)

    def outer():
        time.sleep(0.002)
        module.inner()

    module = types.SimpleNamespace(inner=inner, outer=outer, small=lambda: None)
    tracer = Tracer()
    tracer.span(module, "outer", "outer")
    tracer.span(module, "inner", "inner", sizes={"inner.bytes": lambda args, result: 8.0})
    tracer.count(module, "small", "small")
    tracer.span(module, "removed_by_a_later_change", "gone")
    tracer.begin_analysis()
    with tracer:
        module.outer()
        module.outer()
        module.small()
    assert module.inner is inner and module.outer is outer

    (row,) = tracer.per_analysis()
    assert row["outer.calls"] == 2 and row["inner.calls"] == 2
    assert row["small.calls"] == 1 and row["inner.bytes"] == 16.0
    assert row.get("gone.calls", 0) == 0
    assert row["outer.self_s"] + row["inner.self_s"] == pytest.approx(row["outer.total_s"], rel=1e-9)
    assert row["inner.self_s"] == row["inner.total_s"]
    assert 0 < row["outer.self_s"] < row["outer.total_s"]
    parents = {s.name: s.parent for s in tracer.spans}
    assert parents["outer"] is None and parents["inner"] is not None
