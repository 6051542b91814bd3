"""Acceptance gate: nine end-to-end checks at stated tolerances.

Each test prints one PASS/FAIL line with the measured quantity next to its
threshold. The expensive experiment runs (four-method comparison, the two
hyperparameter sweeps) execute once in module-scoped fixtures and are shared
by every criterion that needs them.
"""

import inspect
import time
from dataclasses import replace

import numpy as np
import pytest

from meshadapt import cli, data, experiments, linalg, losses, model, trainer
from meshadapt.propagation import build_graph, propagate, propagate_iterative_oracle

pytestmark = pytest.mark.acceptance


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} — {detail}")


# ---------------------------------------------------------------------------
# shared expensive runs


@pytest.fixture(scope="module")
def method_results():
    """S+T, MESH, MESH-nA on the default task, default config, default seeds."""
    cache = {}
    results = {}
    timings = {}
    for method in ("S+T", "MESH", "MESH-nA"):
        start = time.time()
        spec = experiments.ExperimentSpec(method=method)
        results[method] = experiments.run_experiment(spec, pretrained_cache=cache)
        timings[method] = time.time() - start
    return results, timings


@pytest.fixture(scope="module")
def sweep_results(tmp_path_factory):
    """k-hat and lambda0 sweeps of MESH on the default task."""
    out = tmp_path_factory.mktemp("sweeps")
    spec = experiments.ExperimentSpec(method="MESH")
    k_rows = experiments.run_sweep(spec, "k_hat", [1, 10], out / "k_hat")
    l_rows = experiments.run_sweep(spec, "lambda0", [0.5, 1.0], out / "lambda0")
    return k_rows, l_rows, out


# ---------------------------------------------------------------------------
# criterion 1: the propagation solve equals the damped-iteration oracle


def test_criterion_1_propagation_oracle_equivalence():
    start = time.time()
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(1000 + trial)
        features = rng.standard_normal((50, 6))
        classes = np.full(50, -1)
        classes[:9] = rng.integers(0, 3, size=9)
        graph = build_graph(features, classes, num_classes=3, k_hat=5)
        closed = propagate(graph, alpha=0.9).scores
        iterative = propagate_iterative_oracle(graph, alpha=0.9, iters=350)
        worst = max(worst, float(np.abs(closed - iterative).max()))
    elapsed = time.time() - start
    ok = worst < 1e-8 and elapsed < 10.0
    _report(
        "criterion 1",
        ok,
        f"max solver-vs-iterative deviation {worst:.3e} (< 1e-8) over 20 graphs "
        f"(n=50, k_hat=5, alpha=0.9), runtime {elapsed:.1f}s (< 10s)",
    )
    assert worst < 1e-8
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 2: every loss gradient matches central finite differences


def _param_arrays(params):
    layers = [*params.encoder, params.bottleneck, params.classifier]
    out = []
    for layer in layers:
        out.extend([layer.weight, layer.bias])
    return out


def _grad_arrays(grads):
    out = []
    for g in [*grads.encoder, grads.bottleneck, grads.classifier]:
        out.extend([g.weight, g.bias])
    return out


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


def _fd_worst(arrays, grad_arrays, scalar_fn, h=1e-5):
    worst = 0.0
    for arr, grad in zip(arrays, grad_arrays):
        flat, gflat = arr.ravel(), grad.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = scalar_fn()
            flat[i] = orig - h
            down = scalar_fn()
            flat[i] = orig
            worst = max(worst, _rel_err(gflat[i], (up - down) / (2.0 * h)))
    return worst


def test_criterion_2_gradients_match_finite_differences():
    start = time.time()
    worst = {}
    dims_grid = [[4, 6, 5, 3], [3, 5, 4, 2], [5, 4, 4, 4, 3]]
    for dims in dims_grid:
        for seed in (0, 1, 2):
            rng = np.random.default_rng(seed)
            params = model.init_model(dims, seed=seed)
            x = rng.standard_normal((6, dims[0]))
            num_classes = dims[-1]
            y = rng.integers(0, num_classes, size=6)
            smoothed = losses.smooth_labels(y, num_classes, 0.1)
            pseudo = rng.integers(0, num_classes, size=6)

            def proba():
                logits, cache = model.forward(params, x)
                return linalg.row_softmax(logits), cache

            paths = {
                "labeled_ce": lambda: losses.cross_entropy(proba()[0], smoothed),
                "entropy": lambda: losses.entropy_loss(proba()[0]),
                "pseudo_ce": lambda: losses.pseudo_ce_loss(proba()[0], pseudo),
                "diversity": lambda: losses.diversity_loss(proba()[0]),
            }
            for name, path in paths.items():
                p, cache = proba()
                _, dlogits = path()
                grads = model.backward(params, cache, dlogits)
                scalar = lambda path=path: path()[0]
                err = _fd_worst(_param_arrays(params), _grad_arrays(grads), scalar)
                err = max(err, _fd_worst([x], [grads.input_grad], scalar))
                worst[name] = max(worst.get(name, 0.0), err)

            # adversarial smoothing: perturbation and reference fixed, net varies
            vat = losses.vat_loss(params, x, eps_vat=1.0, power_iters=1, seed=99)
            p_clean = linalg.row_softmax(model.forward(params, x)[0])
            shifted = x + vat.perturbation

            def vat_scalar():
                logits, _ = model.forward(params, shifted)
                return losses.kl_divergence(p_clean, linalg.row_softmax(logits))

            assert abs(vat.loss - vat_scalar()) < 1e-12
            grads = model.backward(params, vat.cache, vat.dlogits)
            err = _fd_worst(_param_arrays(params), _grad_arrays(grads), vat_scalar)
            err = max(err, _fd_worst([shifted], [grads.input_grad], vat_scalar))
            worst["adversarial"] = max(worst.get("adversarial", 0.0), err)

    elapsed = time.time() - start
    worst_overall = max(worst.values())
    ok = worst_overall < 1e-4 and elapsed < 30.0
    breakdown = " ".join(f"{k}={v:.2e}" for k, v in sorted(worst.items()))
    _report(
        "criterion 2",
        ok,
        f"worst relative gradient error {worst_overall:.3e} (< 1e-4, h=1e-5) "
        f"across 3 nets x 3 seeds [{breakdown}], runtime {elapsed:.1f}s (< 30s)",
    )
    assert worst_overall < 1e-4
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 3: analytic spot values


def test_criterion_3_analytic_spot_values():
    smoothed = losses.smooth_labels(np.arange(10), 10, 0.1)
    true_entry = float(smoothed[3, 3])
    exact = true_entry == 0.9

    uniform4 = np.full((5, 4), 0.25)
    ent, _ = losses.entropy_loss(uniform4)
    ent_dev = abs(ent - np.log(4.0))

    div, _ = losses.diversity_loss(uniform4)
    div_dev = abs(div - (-np.log(4.0)))

    net = model.init_model([6, 8, 5, 4], seed=3)
    x = np.random.default_rng(4).standard_normal((7, 6))
    norm_dev = 0.0
    for eps in (0.1, 1.0, 2.5):
        vat = losses.vat_loss(net, x, eps_vat=eps, power_iters=1, seed=5)
        norms = np.sqrt((vat.perturbation**2).sum(axis=1))
        norm_dev = max(norm_dev, float(np.abs(norms - eps).max()))

    ok = exact and ent_dev < 1e-12 and div_dev < 1e-12 and norm_dev < 1e-12
    _report(
        "criterion 3",
        ok,
        f"smoothed true-class entry {true_entry!r} (= 0.9 exactly), "
        f"uniform entropy dev {ent_dev:.1e} (< 1e-12), "
        f"uniform diversity dev {div_dev:.1e} (< 1e-12), "
        f"perturbation norm dev {norm_dev:.1e} (< 1e-12)",
    )
    assert exact
    assert ent_dev < 1e-12
    assert div_dev < 1e-12
    assert norm_dev < 1e-12


# ---------------------------------------------------------------------------
# criterion 4: frozen classifier, no source access, truth-blind losses


def test_criterion_4_freeze_and_source_free_contracts():
    source, pool = data.gen_synthetic_shift(
        num_classes=4, n_source=800, m_target=800, rotation_deg=50.0,
        translation=0.0, noise_std=0.35, seed=2021, lift_dim=10,
    )
    target = data.split_nshot(pool, shots=3, seed=2021)
    cfg = trainer.AdaptConfig(epochs=10, seed=2021)
    net = model.init_model(cfg.model_dims(source.n_features, 4), seed=2021)
    pretrained = trainer.pretrain_source(net, source, cfg)

    adapted, report = trainer.adapt(pretrained, target, cfg)
    frozen_ok = (
        adapted.classifier.weight.tobytes() == pretrained.classifier.weight.tobytes()
        and adapted.classifier.bias.tobytes() == pretrained.classifier.bias.tobytes()
    )

    arg_names = set(inspect.signature(trainer.adapt).parameters)
    source_free = arg_names == {"net", "target", "cfg", "debug_graph_dir"}

    hidden = target.split == "unlabeled"
    scrambled_truth = target.truth.copy()
    scrambled_truth[hidden] = np.random.default_rng(0).permutation(scrambled_truth[hidden])
    scrambled = data.Dataset(
        features=target.features.copy(), labels=target.labels.copy(),
        truth=scrambled_truth, domain=target.domain,
        split=target.split.copy(), num_classes=4,
    )
    _, report_scrambled = trainer.adapt(pretrained, scrambled, cfg)
    loss_fields = ("l_lab", "l_ent", "l_ps", "l_vadv", "l_div", "l_total")
    losses_identical = all(
        getattr(a, f) == getattr(b, f)
        for a, b in zip(report.records, report_scrambled.records)
        for f in loss_fields
    )

    ok = frozen_ok and source_free and losses_identical
    _report(
        "criterion 4",
        ok,
        f"classifier bit-identical across adaptation: {frozen_ok}; "
        f"adapt signature {sorted(arg_names)} has no source input: {source_free}; "
        f"hidden-label permutation leaves all loss columns bit-identical: "
        f"{losses_identical}",
    )
    assert frozen_ok
    assert source_free
    assert losses_identical


# ---------------------------------------------------------------------------
# criterion 5: byte-identical experiment reports


def test_criterion_5_experiment_determinism(tmp_path, capsys):
    paths = [tmp_path / "run_a.txt", tmp_path / "run_b.txt"]
    for path in paths:
        rc = cli.main(["experiment", "--method", "MESH", "--epochs", "5",
                       "--out", str(path)])
        assert rc == 0
    capsys.readouterr()
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    with capsys.disabled():
        _report(
            "criterion 5",
            identical,
            f"two `experiment` runs with an identical spec wrote "
            f"{'byte-identical' if identical else 'DIFFERING'} report files "
            f"({paths[0].stat().st_size} bytes)",
        )
    assert identical


# ---------------------------------------------------------------------------
# criteria 6 and 7: headline gap and ablation direction


def test_criterion_6_mesh_beats_st_by_five_points(method_results):
    results, timings = method_results
    st = results["S+T"].mean_accuracy
    mesh = results["MESH"].mean_accuracy
    gap = 100.0 * (mesh - st)
    runtime = timings["S+T"] + timings["MESH"]
    ok = gap >= 5.0 and runtime < 300.0
    _report(
        "criterion 6",
        ok,
        f"MESH {mesh:.4f} vs S+T {st:.4f} on the default task "
        f"(3-shot, seeds 2021-2023): gap {gap:+.2f} points (>= 5.00 needed), "
        f"runtime {runtime:.0f}s (< 300s)",
    )
    assert gap >= 5.0
    assert runtime < 300.0


def test_criterion_7_augmentation_ablation_direction(method_results):
    results, timings = method_results
    mesh = results["MESH"].mean_accuracy
    na = results["MESH-nA"].mean_accuracy
    runtime = timings["MESH-nA"] + timings["MESH"]
    ok = mesh >= na and runtime < 300.0
    _report(
        "criterion 7",
        ok,
        f"MESH {mesh:.4f} >= MESH-nA {na:.4f} "
        f"(margin {100 * (mesh - na):+.2f} points), 3 seeds, "
        f"runtime {runtime:.0f}s (< 300s)",
    )
    assert mesh >= na
    assert runtime < 300.0


# ---------------------------------------------------------------------------
# criterion 8: selected seeds are more accurate than pseudo-labels


def test_criterion_8_seed_quality_diagnostic(method_results):
    results, _ = method_results
    margins = {}
    for outcome in results["MESH"].outcomes:
        seed_acc = np.array([r.seed_acc for r in outcome.report.records])
        pseudo_acc = np.array([r.pseudo_acc for r in outcome.report.records])
        margins[outcome.seed] = float(np.nanmean(seed_acc - pseudo_acc))
    ok = all(m >= 0.0 for m in margins.values())
    detail = " ".join(f"seed {s}: {m:+.4f}" for s, m in margins.items())
    _report(
        "criterion 8",
        ok,
        f"per-epoch (selected-seed accuracy - pseudo-label accuracy), "
        f"averaged over each run, is nonnegative for every seed [{detail}]",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: sweeps complete and sparsity hurts propagation


def test_criterion_9_sweep_sanity(sweep_results):
    k_rows, l_rows, out = sweep_results
    k1 = k_rows[0][1].mean_accuracy
    k10 = k_rows[1][1].mean_accuracy
    files_ok = all(
        (out / sub / name).exists()
        for sub, names in (
            ("k_hat", ("k_hat_1.txt", "k_hat_10.txt", "sweep_k_hat.txt")),
            ("lambda0", ("lambda0_0.5.txt", "lambda0_1.0.txt", "sweep_lambda0.txt")),
        )
        for name in names
    )
    lambda_points = " ".join(f"{v:g}->{r.mean_accuracy:.4f}" for v, r in l_rows)
    ok = files_ok and k1 <= k10
    _report(
        "criterion 9",
        ok,
        f"lambda0 and k_hat sweeps completed with all report files: {files_ok}; "
        f"k_hat=1 {k1:.4f} <= k_hat=10 {k10:.4f} (mean over 3 seeds); "
        f"lambda0 points [{lambda_points}]",
    )
    assert files_ok
    assert k1 <= k10
