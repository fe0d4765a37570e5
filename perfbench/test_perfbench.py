"""Smoke test of the benchmark harness: every named metric, every workload.

Runs ``run.py --smoke`` (one small pass, one set-up probe) for each
workload, untraced and traced, and checks the result line against
``BENCHMARK.json``.  The numbers themselves are not checked.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]

    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    metrics = result["metrics"]
    assert set(metrics) == set(units)
    for name, metric in metrics.items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))

    detail = json.loads(next(line for line in lines if line.startswith("detail "))[7:])
    assert set(detail["samples"]) == set(units)
    assert all(n >= 1 for n in detail["samples"].values())
    assert detail["absent_layers"] == []
    for key in ("git_sha", "nproc", "python", "numpy", "blas", "blas_threads"):
        assert key in detail["env"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
