"""Smoke test for the benchmark: every workload at ``--scale 0.01``.

Run from the repository root::

    PYTHONPATH=src python -m pytest bench -q

Each run is a fresh subprocess, exactly as the benchmark is driven.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench.harness import Pass
from bench.ledger import (COUNTER_UNITS, OP_LAYERS, Layer, Ledger,
                          read_counters)
from bench.speed import REFERENCE_NS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT,
         seed: int = 7) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", workload,
         "--seed", str(seed), "--scale", "0.01", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *notes, last = proc.stdout.strip().splitlines()
    # every wrap target and stats counter exists in this program
    assert not [line for line in notes if line.startswith("absent")]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _assert_spec(result: dict, spec: list[dict]) -> None:
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in spec}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_no_errors(workload: str) -> None:
    result = _result(workload, 0)
    _assert_spec(result, SPEC["end_to_end"])
    assert result["correct"]
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0  # error_rate
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _deterministic(metrics: dict) -> dict:
    return {name: m["value"] for name, m in metrics.items()
            if name.endswith((".calls_per_op", ".setup_calls"))
            or name in COUNTER_UNITS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload: str) -> None:
    first, second = _result(workload, 1), _result(workload, 1)
    _assert_spec(first, SPEC["per_layer"])
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0
    counts = _deterministic(first["metrics"])
    assert len(counts) == len(OP_LAYERS) + 1 + len(COUNTER_UNITS)
    assert counts == _deterministic(second["metrics"])


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("tainted_read", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


class _Target:
    def present(self) -> int:
        return 1


def test_missing_targets_make_a_layer_absent() -> None:
    layers = (Layer("here", __name__, "_Target", ("present", "gone"), "", ()),
              Layer("gone", __name__, "_Target", ("deleted",), "", ()),
              Layer("nomodule", "no.such.module", "X", ("f",), "", ()))
    original = _Target.present
    ledger = Ledger(layers)
    ledger.install()
    try:
        assert _Target.present is not original
        assert _Target().present() == 1
    finally:
        ledger.uninstall()
    assert _Target.present is original
    assert ledger.absent == ["gone", "nomodule"]
    assert ledger.calls == [1, 0, 0]


class _Plans:
    def stats(self) -> dict:
        return {"hits": 3, "misses": 1}


class _Provider:
    """Has the plan cache's stats without ``bypasses``, and none of the
    other stats methods."""

    plans = _Plans()


def test_times_are_divided_by_the_local_host_slowdown() -> None:
    # 40 samples at reference speed, then 40 at half speed; one op and
    # 10 us of loop time after each sample
    samples = [REFERENCE_NS] * 40 + [2 * REFERENCE_NS] * 40
    run = Pass(latencies_ns=[1000] * 80, failed=0, wall_ns=800_000,
               busy_ns=0, unattributed_ns=0, speed_samples=samples,
               segments=[(k, 10_000) for k in range(80)])
    latencies, wall = run.normalized()
    assert latencies[0] == latencies[39] == 1000
    assert latencies[40] == latencies[79] == 500
    assert wall == 40 * 10_000 + 40 * 5_000


def test_missing_counters_are_absent_not_zero() -> None:
    counts, absent = read_counters([_Provider(), _Provider()], [])
    assert counts == {"plans.hits": 6, "plans.misses": 2}
    assert absent == ["plans.bypasses", "capindex.hits", "capindex.misses",
                      "flow.hit_total", "flow.miss_total",
                      "durability.bytes_written", "durability.compactions"]
