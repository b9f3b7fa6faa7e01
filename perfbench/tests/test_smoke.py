"""Tiny end-to-end runs of every workload."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.manifest import ROOT, metrics
from perfbench.run import REFERENCE
from perfbench.workloads import WORKLOADS


def _run(workload, trace=0, cwd=ROOT):
    out = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", "5",
            "--seconds", "0",
            "--trace", str(trace),
            "--episodes", "1",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return out


def _result(out):
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_each_workload_runs_and_checks_its_output(workload):
    out = _run(workload)
    result = _result(out)
    # Every campaign matched the workload's reference (for trace_replay,
    # the recorded run), so the run is correct.
    checks = f"3/3 campaigns match the fingerprint of {REFERENCE[workload]}"
    assert checks in out.stdout
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, unit in metrics("end_to_end")
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    out = _run("campaign_wide", trace=1)
    result = _result(out)
    assert result["correct"] is True
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(values) == [name for name, _ in metrics("per_layer")]
    timed = {
        name: value
        for name, value in values.items()
        if name.endswith(".self_ms")
    }
    assert max(timed, key=timed.get) == "database.engine.self_ms"
    assert values["scenarios.load_trace.self_ms"] == 0
    assert values["unattributed_ms"] < values["traced_wall_ms"] / 5
    assert values["tracing_overhead"] > 0
    assert "wrappers restored: True" in out.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _run("campaign_wide", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout

