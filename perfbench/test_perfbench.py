"""Self-test: every workload at a tiny size prints every declared metric.

    python3 -m pytest perfbench -q

Runs the benchmark command from ``BENCHMARK.json`` once per workload and
trace mode with ``--size tiny``, and checks the last stdout line against
the metric names and units declared there.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    command = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_declared_metric(workload, trace):
    done = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_fails_without_the_source_tree(tmp_path):
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
