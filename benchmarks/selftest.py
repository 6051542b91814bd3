"""Self-tests of the benchmark, kept out of the package's test suite.

    python3 -m pytest -q benchmarks/selftest.py

Every workload runs at a tiny size, traced and untraced, and each
correctness check is shown to fail when it is fed a wrong value.
"""

import copy
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import meshadapt  # noqa: E402
from checks import (  # noqa: E402
    CheckFailed,
    check_above_chance,
    check_accuracy,
    check_frozen,
    check_graph,
    check_simplex,
)
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Capture, fastest, check_rounds, run_round  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GRAPH_SILENT = ("propagation.propagate.calls", "model.mc_dropout_predict.calls", "losses.vat_loss.calls")


def tiny(name: str):
    w = WORKLOADS[name]
    task = replace(w.task, n_source=200, m_target=100 if w.task.m_target == 800 else 200)
    return replace(w, task=task, seeds_per_round=1, epochs=2, pretrain_epochs=10)


def run_tiny(workload, rounds=2, tracer=None):
    seeds = workload.seeds(0)
    tasks = {s: workload.generate(s) for s in seeds}
    capture = Capture()
    capture.install()
    try:
        out = [run_round(workload, seeds, tasks, capture) for _ in range(rounds)]
        if tracer is not None:
            tracer.install()
            try:
                out.append(run_round(workload, seeds, tasks, capture, tracer))
            finally:
                tracer.remove()
    finally:
        capture.remove()
    return out


@pytest.fixture(scope="module")
def mesh_rounds():
    return run_tiny(tiny("mesh-default"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_and_traces_at_tiny_size(name):
    originals = {m: dict(vars(getattr(meshadapt, m))) for m in ("linalg", "model", "propagation")}
    workload = tiny(name)
    tracer = Tracer(meshadapt)
    rounds = run_tiny(workload, tracer=tracer)
    check_rounds(workload, rounds)  # the traced round reproduces the untraced bits
    assert fastest(rounds, "adapt_s") > 0.0

    summary = tracer.summary()
    summary["trace.overhead_s"] = 0.0
    for metric in SPEC["per_layer"]:
        assert metric["name"] in summary, metric["name"]
    uses_graph = workload.uses_graph
    for key in GRAPH_SILENT:
        assert (summary[key] > 0) == uses_graph, key
    assert (summary["linalg.matmul.graph_s"] > 0.0) == uses_graph
    assert summary["linalg.matmul.batch_s"] > 0.0
    assert summary["linalg.matmul.flops"] > 0
    for m, attrs in originals.items():  # wrappers are all removed again
        for attr, value in attrs.items():
            assert getattr(getattr(meshadapt, m), attr) is value


def test_self_time_excludes_children():
    tracer = Tracer(meshadapt)
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    s = tracer.summary()
    assert s["outer.self_s"] == pytest.approx(s["outer.s"] - s["inner.s"])
    assert s["inner.self_s"] == s["inner.s"]


def test_perturbed_scores_fail_the_graph_check(mesh_rounds):
    shape, rows, cols, values, seed_labels, alpha, scores = mesh_rounds[0].outcomes[0].captured.graph
    w_norm = np.zeros(shape)
    w_norm[rows, cols] = values
    check_graph(w_norm, seed_labels, alpha, scores)

    bumped = scores.copy()
    bumped[-1, 0] += 1e-6
    with pytest.raises(CheckFailed, match="sparse LU"):
        check_graph(w_norm, seed_labels, alpha, bumped)
    negative = scores.copy()
    negative[-1, 0] = -1e-6
    with pytest.raises(CheckFailed, match="negative"):
        check_graph(w_norm, seed_labels, alpha, negative)
    asymmetric = w_norm.copy()
    asymmetric[rows[0], cols[0]] *= 1.5
    with pytest.raises(CheckFailed, match="symmetric"):
        check_graph(asymmetric, seed_labels, alpha, scores)
    with pytest.raises(CheckFailed, match="spectral radius"):
        check_graph(w_norm * 1.01, seed_labels, alpha, scores)


def test_modified_classifier_weight_fails_the_frozen_check(mesh_rounds):
    o = mesh_rounds[0].outcomes[0]
    check_frozen(o.classifier_before, o.adapted)
    changed = o.adapted.copy()
    changed.classifier.weight[0, 0] = np.nextafter(changed.classifier.weight[0, 0], np.inf)
    with pytest.raises(CheckFailed, match="classifier"):
        check_frozen(o.classifier_before, changed)


def test_wrong_accuracy_fails_the_accuracy_checks(mesh_rounds):
    o = mesh_rounds[0].outcomes[0]
    check_accuracy(o.adapted, o.test.features, o.test.truth, o.accuracy)
    with pytest.raises(CheckFailed, match="NumPy forward"):
        check_accuracy(o.adapted, o.test.features, o.test.truth, o.accuracy + 1.0 / o.test.n)
    check_above_chance(o.accuracy, 4)
    with pytest.raises(CheckFailed, match="chance"):
        check_above_chance(0.25, 4)


def test_off_simplex_mc_mean_fails(mesh_rounds):
    mean = mesh_rounds[0].outcomes[0].captured.mc_mean
    check_simplex(mean)
    with pytest.raises(CheckFailed, match="simplex"):
        check_simplex(mean * (1.0 + 1e-9))


def test_round_that_does_not_reproduce_fails(mesh_rounds):
    workload = tiny("mesh-default")
    check_rounds(workload, mesh_rounds)
    other = copy.deepcopy(mesh_rounds[1])
    other.outcomes[0].adapted.encoder[0].bias[0] += 1e-12
    with pytest.raises(CheckFailed, match="other bits"):
        check_rounds(workload, [mesh_rounds[0], other])


def test_run_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = [*SPEC["command"], "--workload", "st-default", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
