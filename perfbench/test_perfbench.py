"""Smoke test of the benchmark: every workload for about a second, untraced
and traced, must report every metric of ``BENCHMARK.json`` with its unit and
pass its output check; a traced run's per-layer parts must account for its
``lat_ms_p50`` within the stated tolerance.  Run from the repository root::

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def test_benchmark_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric_and_passes_output_check(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    context = json.loads(lines[-2].removeprefix("perfbench context "))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in expected}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
    if trace:
        accounting = context["accounting"]
        assert accounting["parts_ms"]
        assert accounting["within_tolerance"], accounting
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
    assert not (ROOT / ".perfbench").exists(), "run left its cache directory behind"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "engine_b1_f64", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
