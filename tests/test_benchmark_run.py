"""The benchmark's own command runs and passes its checks on every workload.

``benchmarks/`` reads parts of the package's API (``ModelParams`` fields,
``graph.w_norm``, ``model.mc_dropout_predict``, ...). A change that breaks one
of them fails here, through the exact command the benchmark runs, with the
shortest time budget: one round per workload.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def workload_names() -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return [entry["name"] for entry in json.load(handle)["workloads"]]


def tree(path: Path) -> list[str]:
    return sorted(str(p.relative_to(path)) for p in path.rglob("*"))


@pytest.mark.parametrize("workload", workload_names())
def test_benchmark_command_reports_correct(workload):
    pytest.importorskip("scipy")  # the benchmark's checks solve with SciPy
    before = tree(ROOT / "benchmarks")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert tree(ROOT / "benchmarks") == before
