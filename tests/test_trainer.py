"""Tests for pretraining, adaptation, and the config/report containers.

The heavyweight invariants live here: the classifier must be bit-identical
across adaptation, adaptation must be deterministic under its seed, and the
hidden ground truth of unlabeled rows must have zero influence on the
learned parameters (it may only feed the report's accuracy columns).
"""

import numpy as np
import pytest

from meshadapt import data, linalg, losses, model, trainer
from meshadapt.trainer import (
    AdaptConfig,
    EpochRecord,
    TrainReport,
    _Cycler,
    _MomentumSGD,
    _train_step,
    adapt,
    evaluate,
    pretrain_source,
    write_train_report,
)
from test_model import per_pass_mc_oracle


def small_cfg(**overrides) -> AdaptConfig:
    base = dict(
        hidden_dims=(8,),
        bottleneck_dim=4,
        epochs=3,
        pretrain_epochs=8,
        batch_size=32,
        mc_passes=3,
        k_hat=5,
        seed=0,
    )
    base.update(overrides)
    return AdaptConfig(**base)


@pytest.fixture(scope="module")
def task():
    source, pool = data.gen_synthetic_shift(
        num_classes=3, n_source=120, m_target=150, rotation_deg=40.0,
        translation=0.0, noise_std=0.3, seed=7, lift_dim=5,
    )
    target = data.split_nshot(pool, shots=3, seed=7)
    return source, target


@pytest.fixture(scope="module")
def pretrained(task):
    source, _ = task
    cfg = small_cfg()
    net = model.init_model(cfg.model_dims(source.n_features, source.num_classes), seed=0)
    return pretrain_source(net, source, cfg)


class TestAdaptConfig:
    def test_model_dims_composition(self):
        cfg = AdaptConfig(hidden_dims=(32, 16), bottleneck_dim=8)
        assert cfg.model_dims(10, 4) == [10, 32, 16, 8, 4]

    def test_defaults_are_valid(self):
        AdaptConfig()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("lambda0", -0.1),
            ("alpha", 0.0),
            ("alpha", 1.0),
            ("k_hat", 0),
            ("eps_smooth", 1.0),
            ("eps_smooth", -0.1),
            ("eps_vat", 0.0),
            ("vat_power_iters", 0),
            ("lr_encoder", 0.0),
            ("lr_bottleneck", -1.0),
            ("lr_classifier", 0.0),
            ("momentum", 1.0),
            ("momentum", -0.1),
            ("batch_size", 0),
            ("epochs", 0),
            ("pretrain_epochs", 0),
            ("mc_passes", 0),
            ("steps_per_epoch", 0),
            ("dropout_rate", 1.0),
            ("hidden_dims", ()),
            ("hidden_dims", (0,)),
            ("bottleneck_dim", 0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            AdaptConfig(**{field: value})

    def test_hidden_dims_coerced_to_ints(self):
        cfg = AdaptConfig(hidden_dims=[16.0, 8.0])
        assert cfg.hidden_dims == (16, 8)


class TestSgdStep:
    def test_momentum_arithmetic(self):
        net = model.init_model([1, 1, 1, 1], seed=0)
        net.frozen = {"encoder", "classifier"}
        net.bottleneck = model.LinearLayer(np.array([[1.0]]), np.array([0.5]))
        sgd = _MomentumSGD(net, small_cfg(lr_bottleneck=0.1, momentum=0.9))
        grads = [None, (np.array([[2.0]]), np.array([1.0])), None]
        sgd.step([grads])
        # v = 0.9*0 + 2 = 2; w = 1 - 0.1*2 = 0.8
        assert net.bottleneck.weight[0, 0] == pytest.approx(0.8, abs=1e-15)
        assert net.bottleneck.bias[0] == pytest.approx(0.5 - 0.1, abs=1e-15)
        sgd.step([grads])
        # v = 0.9*2 + 2 = 3.8; w = 0.8 - 0.1*3.8 = 0.42
        assert net.bottleneck.weight[0, 0] == pytest.approx(0.42, abs=1e-15)
        assert net.bottleneck.bias[0] == pytest.approx(0.4 - 0.1 * 1.9, abs=1e-15)

    def test_contributions_summed_in_order_at_each_group_rate(self):
        net = model.init_model([2, 3, 2, 2], seed=1)
        net.frozen = {"classifier"}
        before = net.copy()
        cfg = small_cfg(lr_encoder=0.25, lr_bottleneck=0.5, momentum=0.9)
        rng = np.random.default_rng(2)
        contributions = [
            [(rng.standard_normal(layer.weight.shape), rng.standard_normal(layer.bias.shape))
             if group != "classifier" else None
             for group, layer in net.layers()]
            for _ in range(3)
        ]
        _MomentumSGD(net, cfg).step(contributions)
        for i, ((group, layer), (_, old)) in enumerate(zip(net.layers(), before.layers())):
            if group == "classifier":
                assert layer.weight.tobytes() == old.weight.tobytes()
                continue
            lr = 0.25 if group == "encoder" else 0.5
            for new, start, k in ((layer.weight, old.weight, 0), (layer.bias, old.bias, 1)):
                total = contributions[0][i][k] + contributions[1][i][k] + contributions[2][i][k]
                # first step: the velocity is the summed gradient itself
                assert new.tobytes() == (start - lr * total).tobytes()


class TestTrainStepLosses:
    """How ``_train_step`` weights the terms, with each loss pinned to a fixed
    value and a constant logit gradient."""

    FIXED = {
        "cross_entropy": (0.7, 0.1),
        "entropy_loss": (0.5, 0.2),
        "pseudo_ce_loss": (0.9, 0.3),
        "diversity_loss": (-0.4, 0.4),
    }

    def run_step(self, monkeypatch, **overrides):
        for name, (value, grad) in self.FIXED.items():
            monkeypatch.setattr(
                losses, name, lambda p, *_, v=value, g=grad: (v, np.full_like(p, g))
            )
        vat_loss, backward = losses.vat_loss, model.backward
        seeds = []

        def fixed_vat(*args, **kwargs):
            result = vat_loss(*args, **kwargs)
            return result._replace(loss=0.25, dlogits=np.full_like(result.dlogits, 0.5))

        def recording_backward(params, cache, dlogits, param_grads=True, **kwargs):
            if param_grads:  # VAT's power iteration reads only the input gradient
                seeds.append(dlogits)
            return backward(params, cache, dlogits, param_grads=param_grads, **kwargs)

        monkeypatch.setattr(losses, "vat_loss", fixed_vat)
        monkeypatch.setattr(model, "backward", recording_backward)
        net = model.init_model([3, 4, 3, 3], seed=0)
        rng = np.random.default_rng(0)
        cfg = small_cfg(**overrides)
        unlabeled = not (cfg.no_ent and cfg.no_ps and cfg.no_div and cfg.no_vat)
        values = _train_step(
            net, _MomentumSGD(net, cfg), cfg,
            rng.standard_normal((2, 3)), np.array([0, 1]),
            rng.standard_normal((4, 3)) if unlabeled else None,
            np.array([0, 1, 2, 0]) if unlabeled else None,
            rng, "epoch 1, step 1",
        )
        return values, seeds

    def test_weighted_combination(self, monkeypatch):
        values, seeds = self.run_step(monkeypatch, lambda0=0.5)
        reg = 0.5 * 0.9 + 0.5 + 0.25 - 0.4
        assert values["l_total"] == pytest.approx(0.7 + reg, abs=1e-12)
        assert (values["l_lab"], values["l_ent"], values["l_ps"]) == (0.7, 0.5, 0.9)
        assert (values["l_vadv"], values["l_div"]) == (0.25, -0.4)
        # labeled seed, unlabeled seed, then VAT's seed on the perturbed branch
        assert [seed.shape for seed in seeds] == [(2, 3), (4, 3), (6, 3)]
        assert np.allclose(seeds[0], 0.1, atol=1e-15)
        assert np.allclose(seeds[1], 0.5 * 0.3 + 0.2 + 0.4, atol=1e-12)
        assert np.allclose(seeds[2], 0.5, atol=1e-15)

    def test_all_absent_terms(self, monkeypatch):
        values, seeds = self.run_step(
            monkeypatch, no_ent=True, no_ps=True, no_vat=True, no_div=True
        )
        assert values == dict(l_lab=0.7, l_ent=0.0, l_ps=0.0, l_vadv=0.0, l_div=0.0, l_total=0.7)
        assert len(seeds) == 1

    def test_pseudo_scaling_in_seed(self, monkeypatch):
        only_ps = dict(no_ent=True, no_vat=True, no_div=True)
        half, half_seeds = self.run_step(monkeypatch, lambda0=0.5, **only_ps)
        full, full_seeds = self.run_step(monkeypatch, lambda0=1.0, **only_ps)
        assert np.allclose(half_seeds[1] * 2, full_seeds[1])
        assert half["l_total"] - half["l_lab"] == pytest.approx(0.45, abs=1e-12)
        assert full["l_total"] - full["l_lab"] == pytest.approx(0.9, abs=1e-12)


class TestCycler:
    def test_every_index_seen_once_per_pass(self):
        cyc = _Cycler(7, np.random.default_rng(0))
        first = cyc.take(7)
        assert sorted(first.tolist()) == list(range(7))
        second = cyc.take(7)
        assert sorted(second.tolist()) == list(range(7))

    def test_take_across_reshuffle_boundary(self):
        cyc = _Cycler(5, np.random.default_rng(1))
        batch = cyc.take(8)
        assert batch.shape == (8,)
        assert sorted(batch[:5].tolist()) == list(range(5))


class TestEvaluate:
    def test_perfect_and_partial(self):
        net = model.init_model([3, 4, 3, 2], seed=0)
        features = np.random.default_rng(0).standard_normal((10, 3))
        logits, _ = model.forward(net, features)
        predicted = np.argmax(logits, axis=1)
        ds = data.Dataset(
            features=features,
            labels=predicted.copy(),
            truth=predicted.copy(),
            domain="target",
            split=np.full(10, "test"),
            num_classes=2,
        )
        assert evaluate(net, ds) == 1.0
        flipped = predicted.copy()
        flipped[:5] = 1 - flipped[:5]
        ds_half = data.Dataset(
            features=features,
            labels=flipped,
            truth=flipped,
            domain="target",
            split=np.full(10, "test"),
            num_classes=2,
        )
        assert evaluate(net, ds_half) == 0.5

    def test_errors(self, task):
        _, target = task
        net = model.init_model([5, 4, 3, 3], seed=0)
        empty = target.subset("val")  # no val rows in target
        with pytest.raises(ValueError, match="empty"):
            evaluate(net, empty)
        hidden = data.Dataset(
            features=np.zeros((2, 5)),
            labels=np.array([-1, -1]),
            truth=np.array([-1, -1]),
            domain="target",
            split=np.array(["unlabeled", "unlabeled"]),
            num_classes=3,
        )
        with pytest.raises(ValueError, match="ground truth"):
            evaluate(net, hidden)


class TestPretrainSource:
    def test_beats_initial_model(self, task):
        source, _ = task
        cfg = small_cfg()
        net = model.init_model(cfg.model_dims(source.n_features, source.num_classes), seed=0)
        fitted = pretrain_source(net, source, cfg)
        val = source.subset("val")
        assert evaluate(fitted, val) > evaluate(net, val)
        assert evaluate(fitted, val) > 0.8  # easy source task

    def test_deterministic(self, task):
        source, _ = task
        cfg = small_cfg()
        net = model.init_model(cfg.model_dims(source.n_features, source.num_classes), seed=0)
        a = pretrain_source(net, source, cfg)
        b = pretrain_source(net, source, cfg)
        for la, lb in zip(a.encoder, b.encoder):
            assert np.array_equal(la.weight, lb.weight)
        assert np.array_equal(a.classifier.weight, b.classifier.weight)

    def test_input_net_not_mutated(self, task):
        source, _ = task
        cfg = small_cfg()
        net = model.init_model(cfg.model_dims(source.n_features, source.num_classes), seed=0)
        before = net.encoder[0].weight.copy()
        pretrain_source(net, source, cfg)
        assert np.array_equal(net.encoder[0].weight, before)

    def test_frozen_group_stays_put(self, task):
        source, _ = task
        cfg = small_cfg()
        net = model.init_model(cfg.model_dims(source.n_features, source.num_classes), seed=0)
        net.frozen = {"encoder"}
        fitted = pretrain_source(net, source, cfg)
        assert fitted.encoder[0].weight.tobytes() == net.encoder[0].weight.tobytes()
        assert not np.array_equal(fitted.bottleneck.weight, net.bottleneck.weight)

    def test_divergence_names_epoch_step_and_term(self, task):
        source, _ = task
        cfg = small_cfg(lr_encoder=1e200, lr_bottleneck=1e200, lr_classifier=1e200)
        net = model.init_model(cfg.model_dims(source.n_features, source.num_classes), seed=0)
        # the first step blows the weights up; the second forward overflows
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(
                ValueError, match=r"^pretrain epoch 1, step 2: loss term l_src is not finite"
            ):
                pretrain_source(net, source, cfg)

    def test_needs_train_and_val_rows(self, task):
        _, target = task
        cfg = small_cfg()
        net = model.init_model(cfg.model_dims(target.n_features, target.num_classes), seed=0)
        with pytest.raises(ValueError, match="train and val"):
            pretrain_source(net, target, cfg)

    def test_needs_two_train_rows_per_class(self):
        cfg = small_cfg()
        features = np.random.default_rng(0).standard_normal((5, 4))
        truth = np.array([0, 0, 1, 0, 1])
        split = np.array(["train", "train", "train", "val", "val"])
        source = data.Dataset(features, truth.copy(), truth, "source", split, 2)
        net = model.init_model(cfg.model_dims(4, 2), seed=0)
        with pytest.raises(ValueError, match="fewer than 2"):
            pretrain_source(net, source, cfg)


def params_equal(a: model.ModelParams, b: model.ModelParams) -> bool:
    pairs = list(zip(a.encoder, b.encoder)) + [
        (a.bottleneck, b.bottleneck),
        (a.classifier, b.classifier),
    ]
    return all(
        np.array_equal(x.weight, y.weight) and np.array_equal(x.bias, y.bias)
        for x, y in pairs
    )


def params_bytes(p):
    layers = [*p.encoder, p.bottleneck, p.classifier]
    return [a.tobytes() for layer in layers for a in (layer.weight, layer.bias)]


class TestAdapt:
    def test_classifier_bit_identical_encoder_moves(self, task, pretrained):
        _, target = task
        adapted, _ = adapt(pretrained, target, small_cfg())
        assert adapted.classifier.weight.tobytes() == pretrained.classifier.weight.tobytes()
        assert adapted.classifier.bias.tobytes() == pretrained.classifier.bias.tobytes()
        assert not np.array_equal(adapted.encoder[0].weight, pretrained.encoder[0].weight)
        assert not np.array_equal(adapted.bottleneck.weight, pretrained.bottleneck.weight)

    def test_frozen_encoder_stays_put(self, task, pretrained):
        _, target = task
        frozen = pretrained.copy()
        frozen.frozen = {"encoder"}
        adapted, _ = adapt(frozen, target, small_cfg())
        assert adapted.encoder[0].weight.tobytes() == frozen.encoder[0].weight.tobytes()
        assert not np.array_equal(adapted.bottleneck.weight, frozen.bottleneck.weight)

    def test_input_net_not_mutated(self, task, pretrained):
        _, target = task
        before = pretrained.encoder[0].weight.copy()
        adapt(pretrained, target, small_cfg())
        assert np.array_equal(pretrained.encoder[0].weight, before)

    def test_deterministic_under_seed(self, task, pretrained):
        _, target = task
        a, report_a = adapt(pretrained, target, small_cfg(seed=3))
        b, report_b = adapt(pretrained, target, small_cfg(seed=3))
        assert params_equal(a, b)
        assert report_a.final_accuracy == report_b.final_accuracy
        c, _ = adapt(pretrained, target, small_cfg(seed=4))
        assert not params_equal(a, c)

    def test_hidden_truth_influences_nothing_but_reports(self, task, pretrained):
        _, target = task
        hidden = target.split == "unlabeled"
        rng = np.random.default_rng(99)
        scrambled_truth = target.truth.copy()
        scrambled_truth[hidden] = rng.permutation(scrambled_truth[hidden])
        scrambled = data.Dataset(
            features=target.features.copy(),
            labels=target.labels.copy(),
            truth=scrambled_truth,
            domain=target.domain,
            split=target.split.copy(),
            num_classes=target.num_classes,
        )
        a, report_a = adapt(pretrained, target, small_cfg())
        b, report_b = adapt(pretrained, scrambled, small_cfg())
        assert params_equal(a, b)
        # diagnostics may move, learned behaviour may not
        assert report_a.final_accuracy == report_b.final_accuracy
        assert report_a.records[0].pseudo_acc != report_b.records[0].pseudo_acc

    def test_report_columns_and_length(self, task, pretrained):
        _, target = task
        cfg = small_cfg()
        _, report = adapt(pretrained, target, cfg)
        assert len(report.records) == cfg.epochs
        assert [r.epoch for r in report.records] == [1, 2, 3]
        last = report.records[-1]
        assert report.final_accuracy == last.test_acc
        assert 0.0 <= last.test_acc <= 1.0
        assert 0.0 <= last.pseudo_acc <= 1.0
        assert 0.0 <= last.seed_acc <= 1.0
        assert np.isfinite(last.l_total)

    def test_every_regulariser_off_zeroes_loss_columns(self, task, pretrained):
        _, target = task
        cfg = small_cfg(no_augmentation=True, no_ent=True, no_ps=True,
                        no_vat=True, no_div=True)
        adapted, report = adapt(pretrained, target, cfg)
        rec = report.records[-1]
        assert rec.l_ent == 0.0 and rec.l_ps == 0.0
        assert rec.l_vadv == 0.0 and rec.l_div == 0.0
        assert rec.l_lab > 0.0
        assert np.isnan(rec.pseudo_acc) and np.isnan(rec.seed_acc)
        assert adapted.classifier.weight.tobytes() == pretrained.classifier.weight.tobytes()

    def test_no_augmentation_keeps_propagation(self, task, pretrained):
        _, target = task
        _, report = adapt(pretrained, target, small_cfg(no_augmentation=True))
        rec = report.records[-1]
        assert not np.isnan(rec.pseudo_acc)
        assert np.isnan(rec.seed_acc)
        assert rec.l_ps > 0.0

    def test_debug_graph_dump(self, task, pretrained, tmp_path):
        _, target = task
        out = tmp_path / "graphs"
        adapt(pretrained, target, small_cfg(epochs=2), debug_graph_dir=out)
        assert (out / "edges_epoch_001.tsv").exists()
        assert (out / "scores_epoch_002.tsv").exists()

    def test_steps_override_changes_trajectory(self, task, pretrained):
        _, target = task
        a, _ = adapt(pretrained, target, small_cfg(steps_per_epoch=1))
        b, _ = adapt(pretrained, target, small_cfg(steps_per_epoch=4))
        assert not params_equal(a, b)

    def test_validation_errors(self, task, pretrained):
        _, target = task
        cfg = small_cfg()
        all_hidden = data.Dataset(
            features=target.features.copy(),
            labels=np.full(target.n, -1),
            truth=target.truth.copy(),
            domain="target",
            split=np.full(target.n, "unlabeled"),
            num_classes=target.num_classes,
        )
        with pytest.raises(ValueError, match="no labeled rows"):
            adapt(pretrained, all_hidden, cfg)
        all_visible = data.Dataset(
            features=target.features.copy(),
            labels=target.truth.copy(),
            truth=target.truth.copy(),
            domain="target",
            split=np.full(target.n, "labeled"),
            num_classes=target.num_classes,
        )
        with pytest.raises(ValueError, match="no unlabeled rows"):
            adapt(pretrained, all_visible, cfg)
        wrong_width = model.init_model([5, 8, 4, 7], seed=0)
        with pytest.raises(ValueError, match="classes"):
            adapt(wrong_width, target, cfg)

    def test_missing_class_coverage_rejected(self, task, pretrained):
        _, target = task
        cfg = small_cfg()
        labels = target.labels.copy()
        split = target.split.copy()
        drop = (target.labels == 0) & (split == "labeled")
        labels[drop] = -1
        split[drop] = "unlabeled"
        partial = data.Dataset(
            features=target.features.copy(),
            labels=labels,
            truth=target.truth.copy(),
            domain="target",
            split=split,
            num_classes=target.num_classes,
        )
        with pytest.raises(ValueError, match="missing class"):
            adapt(pretrained, partial, cfg)


VAT_ONLY = dict(no_ent=True, no_ps=True, no_div=True)


class TestAdaptStepSharing:
    """The step reuses clean forwards and skips unread gradients; the results
    must be the bytes of a run that recomputes everything."""

    @pytest.mark.parametrize("overrides", [{}, VAT_ONLY, {"hidden_dims": (8, 6)}])
    def test_matches_recomputing_oracles_bitwise(self, task, pretrained, overrides, monkeypatch):
        source, target = task
        cfg = small_cfg(epochs=2, **overrides)
        net = pretrained
        if "hidden_dims" in overrides:
            dims = cfg.model_dims(source.n_features, source.num_classes)
            net = pretrain_source(model.init_model(dims, seed=0), source, cfg)
        fast, fast_report = adapt(net, target, cfg)

        vat_loss, backward = losses.vat_loss, model.backward
        monkeypatch.setattr(
            losses, "vat_loss", lambda *args, p_ref=None, **kw: vat_loss(*args, **kw)
        )
        monkeypatch.setattr(
            model, "backward", lambda params, cache, dlogits, **kw: backward(params, cache, dlogits)
        )
        monkeypatch.setattr(model, "mc_dropout_predict", per_pass_mc_oracle)
        slow, slow_report = adapt(net, target, cfg)

        assert params_bytes(fast) == params_bytes(slow)
        assert repr(fast_report) == repr(slow_report)

    @pytest.mark.parametrize("overrides", [{}, VAT_ONLY])
    def test_vat_reference_is_the_clean_prediction(self, task, pretrained, overrides, monkeypatch):
        _, target = task
        vat_loss = losses.vat_loss
        seen = []

        def checked(params, x, *args, p_ref=None, **kw):
            clean = linalg.row_softmax(model.forward(params, x)[0])
            seen.append(p_ref.tobytes() == clean.tobytes())
            return vat_loss(params, x, *args, p_ref=p_ref, **kw)

        monkeypatch.setattr(losses, "vat_loss", checked)
        adapt(pretrained, target, small_cfg(epochs=1, **overrides))
        assert seen and all(seen)


class TestNonFiniteGuard:
    TERMS = {
        "l_lab": "cross_entropy",
        "l_ent": "entropy_loss",
        "l_ps": "pseudo_ce_loss",
        "l_vadv": "vat_loss",
        "l_div": "diversity_loss",
    }

    @pytest.mark.parametrize("term", list(TERMS))
    @pytest.mark.parametrize("where", ["value", "gradient"])
    def test_names_epoch_step_and_term(self, task, pretrained, term, where, monkeypatch):
        _, target = task
        name = self.TERMS[term]
        original = getattr(losses, name)
        calls = []

        def poisoned(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append(None)
            if len(calls) < 3:  # the first two steps stay finite
                return result
            if name == "vat_loss":
                if where == "value":
                    return result._replace(loss=float("nan"))
                return result._replace(dlogits=np.full_like(result.dlogits, np.inf))
            loss, dlogits = result
            if where == "value":
                return float("nan"), dlogits
            dlogits = dlogits.copy()
            dlogits[0, 0] = np.nan
            return loss, dlogits

        monkeypatch.setattr(losses, name, poisoned)
        # pseudo_ce_loss calls cross_entropy too; without it, one call per step
        cfg = small_cfg(no_ps=term == "l_lab")
        with pytest.raises(ValueError, match=rf"^epoch 1, step 3: loss term {term} is not finite"):
            adapt(pretrained, target, cfg)


class TestTrainReportFile:
    def test_format_and_reproducibility(self, tmp_path):
        report = TrainReport(
            records=[
                EpochRecord(1, 0.5, 0.1, 0.2, 0.05, -1.3, 0.55, 0.7, 1.0, 0.61),
                EpochRecord(2, 0.4, 0.09, 0.18, 0.04, -1.35, 0.46, 0.75, 1.0, 0.66),
            ],
            final_accuracy=0.66,
        )
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        write_train_report(report, p1)
        write_train_report(report, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "train-report v1"
        assert lines[1] == "epochs 2"
        assert lines[2] == "final_accuracy 0.66"
        header = lines[3].split("\t")
        assert header[0] == "epoch" and header[-1] == "test_acc"
        row = lines[4].split("\t")
        assert row[0] == "1"
        assert float(row[-1]) == 0.61

    def test_nan_columns_survive(self, tmp_path):
        report = TrainReport(
            records=[EpochRecord(1, 0.5, 0.0, 0.0, 0.0, 0.0, 0.5,
                                 float("nan"), float("nan"), 0.5)],
            final_accuracy=0.5,
        )
        path = tmp_path / "r.txt"
        write_train_report(report, path)
        assert "nan" in path.read_text()
