"""Tests for the training objectives.

The gradient oracles are central finite differences taken through the
softmax composition: each loss is evaluated as a function of logits and the
returned logit-space gradient is compared against numerical differentiation
of that same scalar. Spot values come from hand-computed closed forms.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from meshadapt import losses, model
from meshadapt.linalg import row_softmax
from meshadapt.trainer import AdaptConfig
from meshadapt.losses import (
    LOG_FLOOR,
    cross_entropy,
    diversity_loss,
    entropy_loss,
    kl_divergence,
    pseudo_ce_loss,
    smooth_labels,
    vat_loss,
)


def fd_logit_gradient(loss_of_p, logits, h=1e-6):
    """Central finite differences of ``loss_of_p(softmax(logits))``."""
    grad = np.zeros_like(logits)
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            up = logits.copy()
            up[i, j] += h
            down = logits.copy()
            down[i, j] -= h
            grad[i, j] = (loss_of_p(row_softmax(up)) - loss_of_p(row_softmax(down))) / (2 * h)
    return grad


def assert_close_to_fd(analytic, numeric, rtol=1e-5):
    scale = max(float(np.abs(numeric).max()), 1e-8)
    assert np.allclose(analytic, numeric, atol=rtol * scale)


logit_matrices = arrays(
    np.float64,
    st.tuples(st.integers(1, 4), st.integers(2, 5)),
    elements=st.floats(min_value=-4, max_value=4, allow_nan=False),
)


class TestSmoothLabels:
    def test_frozen_values(self):
        out = smooth_labels(np.array([3]), 10, 0.1)
        # exact float64 equality: 1.0 - 0.1 rounds to the double 0.9
        assert out[0, 3] == 0.9
        off = np.delete(out[0], 3)
        assert np.all(off == 0.1 / 10)

    def test_row_sum_is_one_minus_eps_over_k(self):
        out = smooth_labels(np.array([0, 1, 2]), 4, 0.1)
        assert np.allclose(out.sum(axis=1), 1.0 - 0.1 / 4, atol=1e-12)

    def test_eps_zero_is_onehot(self):
        out = smooth_labels(np.array([1, 0]), 3, 0.0)
        assert np.array_equal(out, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])

    def test_errors(self):
        with pytest.raises(ValueError, match="1-D"):
            smooth_labels(np.array([[1]]), 4, 0.1)
        with pytest.raises(ValueError, match="num_classes"):
            smooth_labels(np.array([0]), 1, 0.1)
        with pytest.raises(ValueError, match="eps"):
            smooth_labels(np.array([0]), 4, 1.0)
        with pytest.raises(ValueError, match="out of range"):
            smooth_labels(np.array([4]), 4, 0.1)


class TestCrossEntropy:
    def test_known_value(self):
        p = np.array([[0.5, 0.5]])
        y = np.array([[1.0, 0.0]])
        loss, _ = cross_entropy(p, y)
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_perfect_prediction_zero_loss(self):
        p = np.array([[1.0, 0.0], [0.0, 1.0]])
        y = p.copy()
        loss, _ = cross_entropy(p, y)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_gradient_matches_fd_onehot(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((3, 4))
        y = np.zeros((3, 4))
        y[np.arange(3), [1, 0, 3]] = 1.0
        _, dlogits = cross_entropy(row_softmax(z), y)
        fd = fd_logit_gradient(lambda p: cross_entropy(p, y)[0], z)
        assert_close_to_fd(dlogits, fd)

    def test_gradient_matches_fd_smoothed(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((4, 5))
        y = smooth_labels(np.array([0, 2, 4, 1]), 5, 0.1)
        _, dlogits = cross_entropy(row_softmax(z), y)
        fd = fd_logit_gradient(lambda p: cross_entropy(p, y)[0], z)
        assert_close_to_fd(dlogits, fd)

    def test_shape_and_empty_errors(self):
        with pytest.raises(ValueError, match="differ in shape"):
            cross_entropy(np.ones((2, 3)) / 3, np.ones((2, 2)))
        with pytest.raises(ValueError, match="empty"):
            cross_entropy(np.zeros((0, 3)), np.zeros((0, 3)))


class TestEntropyLoss:
    def test_uniform_rows_give_log_k(self):
        p = np.full((5, 4), 0.25)
        loss, _ = entropy_loss(p)
        assert abs(loss - np.log(4.0)) < 1e-12

    def test_delta_rows_give_zero(self):
        p = np.zeros((3, 4))
        p[:, 2] = 1.0
        loss, _ = entropy_loss(p)
        assert loss == 0.0

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((3, 5)) * 2
        _, dlogits = entropy_loss(row_softmax(z))
        fd = fd_logit_gradient(lambda p: entropy_loss(p)[0], z)
        assert_close_to_fd(dlogits, fd)

    @given(logit_matrices)
    def test_property_nonnegative_and_bounded(self, z):
        p = row_softmax(z)
        loss, _ = entropy_loss(p)
        assert -1e-12 <= loss <= np.log(p.shape[1]) + 1e-12


class TestPseudoCeLoss:
    def test_equals_onehot_cross_entropy(self):
        rng = np.random.default_rng(3)
        p = row_softmax(rng.standard_normal((4, 3)))
        pseudo = np.array([2, 0, 1, 1])
        onehot = np.zeros((4, 3))
        onehot[np.arange(4), pseudo] = 1.0
        loss_a, grad_a = pseudo_ce_loss(p, pseudo)
        loss_b, grad_b = cross_entropy(p, onehot)
        assert loss_a == loss_b
        assert np.array_equal(grad_a, grad_b)

    def test_errors(self):
        p = np.ones((2, 3)) / 3
        with pytest.raises(ValueError, match="match the batch"):
            pseudo_ce_loss(p, np.array([0]))
        with pytest.raises(ValueError, match="out of range"):
            pseudo_ce_loss(p, np.array([0, 3]))


class TestKlDivergence:
    def test_known_value(self):
        p = np.array([[1.0, 0.0]])
        q = np.array([[0.5, 0.5]])
        assert kl_divergence(p, q) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_identical_distributions_zero(self):
        rng = np.random.default_rng(4)
        p = row_softmax(rng.standard_normal((3, 4)))
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-12)

    @given(logit_matrices)
    def test_property_nonnegative(self, z):
        p = row_softmax(z)
        q = row_softmax(np.roll(z, 1, axis=1))
        assert kl_divergence(p, q) >= -1e-12


class TestDiversityLoss:
    def test_uniform_mean_gives_negative_log_k(self):
        p = np.full((6, 4), 0.25)
        loss, _ = diversity_loss(p)
        assert abs(loss - (-np.log(4.0))) < 1e-12

    def test_collapsed_batch_gives_zero(self):
        p = np.zeros((5, 3))
        p[:, 0] = 1.0
        loss, _ = diversity_loss(p)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_frozen_two_class_value(self):
        # batch mean (0.75, 0.25): 0.75 ln 0.75 + 0.25 ln 0.25
        p = np.array([[1.0, 0.0], [0.5, 0.5]])
        loss, _ = diversity_loss(p)
        expected = 0.75 * np.log(0.75) + 0.25 * np.log(0.25)
        assert loss == pytest.approx(expected, abs=1e-12)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((4, 4))
        _, dlogits = diversity_loss(row_softmax(z))
        fd = fd_logit_gradient(lambda p: diversity_loss(p)[0], z)
        assert_close_to_fd(dlogits, fd)

    @given(logit_matrices)
    def test_property_range(self, z):
        p = row_softmax(z)
        loss, _ = diversity_loss(p)
        assert -np.log(p.shape[1]) - 1e-12 <= loss <= 1e-12


def tiny_net(seed=0, dims=(3, 6, 4, 3)):
    return model.init_model(list(dims), seed=seed)


class TestVatLoss:
    def test_perturbation_norm_equals_eps(self):
        net = tiny_net(seed=1)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 3))
        for eps in (0.25, 1.0, 3.0):
            res = vat_loss(net, x, eps_vat=eps, seed=0)
            norms = np.sqrt((res.perturbation**2).sum(axis=1))
            assert np.all(np.abs(norms - eps) < 1e-12)

    def test_constant_model_zero_loss(self):
        net = tiny_net(seed=2)
        for layer in net.encoder + [net.bottleneck, net.classifier]:
            layer.weight[:] = 0.0
            layer.bias[:] = 0.0
        x = np.random.default_rng(7).standard_normal((4, 3))
        res = vat_loss(net, x, eps_vat=1.0, seed=0)
        assert res.loss == pytest.approx(0.0, abs=1e-12)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(8)
        for seed in range(3):
            net = tiny_net(seed=seed)
            x = rng.standard_normal((6, 3)) * 2
            res = vat_loss(net, x, eps_vat=1.0, seed=seed)
            assert res.loss >= -1e-12

    def test_probe_scale_invariance(self):
        # scaling the probe by a power of two is exact in float64, so the
        # normalised direction and hence the whole result must be bitwise equal
        net = tiny_net(seed=3)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((4, 3))
        probe = rng.standard_normal((4, 3))
        a = vat_loss(net, x, eps_vat=1.0, probe=probe)
        b = vat_loss(net, x, eps_vat=1.0, probe=probe * 2.0)
        assert a.loss == b.loss
        assert np.array_equal(a.perturbation, b.perturbation)

    def test_same_seed_reproducible(self):
        net = tiny_net(seed=4)
        x = np.random.default_rng(10).standard_normal((5, 3))
        a = vat_loss(net, x, eps_vat=1.0, seed=42)
        b = vat_loss(net, x, eps_vat=1.0, seed=42)
        assert a.loss == b.loss
        assert np.array_equal(a.perturbation, b.perturbation)

    def test_more_power_iterations_accepted(self):
        net = tiny_net(seed=5)
        x = np.random.default_rng(11).standard_normal((4, 3))
        res = vat_loss(net, x, eps_vat=0.5, power_iters=3, seed=0)
        assert np.isfinite(res.loss)

    @pytest.mark.parametrize("dims", [(3, 6, 4, 3), (3, 7, 5, 4, 3)])
    @pytest.mark.parametrize("power_iters", [1, 2])
    def test_given_clean_prediction_changes_no_bit(self, dims, power_iters):
        # the training step passes the clean prediction it already has;
        # the result must be the bytes of the run that computes it here
        net = tiny_net(seed=12, dims=dims)
        x = np.random.default_rng(13).standard_normal((9, 3)) * 2
        p_ref = row_softmax(model.forward(net, x)[0])
        a = vat_loss(net, x, eps_vat=1.0, power_iters=power_iters, seed=5)
        b = vat_loss(net, x, eps_vat=1.0, power_iters=power_iters, seed=5, p_ref=p_ref)
        assert repr(a.loss) == repr(b.loss)
        for name in ("perturbation", "dlogits"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert a.cache.logits.tobytes() == b.cache.logits.tobytes()

    def test_clean_prediction_is_used(self):
        net = tiny_net(seed=14)
        x = np.random.default_rng(15).standard_normal((4, 3))
        uniform = np.full((4, 3), 1.0 / 3.0)
        a = vat_loss(net, x, eps_vat=1.0, seed=0)
        b = vat_loss(net, x, eps_vat=1.0, seed=0, p_ref=uniform)
        assert a.loss != b.loss

    def test_parameter_errors(self):
        net = tiny_net(seed=6)
        x = np.zeros((2, 3))
        with pytest.raises(ValueError, match="eps_vat"):
            vat_loss(net, x, eps_vat=0.0)
        with pytest.raises(ValueError, match="power_iters"):
            vat_loss(net, x, eps_vat=1.0, power_iters=0)
        with pytest.raises(ValueError, match="xi"):
            vat_loss(net, x, eps_vat=1.0, xi=-1.0)
        with pytest.raises(ValueError, match="probe"):
            vat_loss(net, x, eps_vat=1.0, probe=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="empty"):
            vat_loss(net, np.zeros((0, 3)), eps_vat=1.0)
        with pytest.raises(ValueError, match="p_ref"):
            vat_loss(net, x, eps_vat=1.0, p_ref=np.full((1, 3), 1.0 / 3.0))
        with pytest.raises(ValueError, match="p_ref"):
            vat_loss(net, x, eps_vat=1.0, p_ref=np.full((2, 2), 0.5))


class TestTotalReg:
    """The total regulariser ``lambda0 * L_ps + L_ent + L_vadv + L_div`` is
    formed in ``trainer._train_step`` (its weighting is tested there); the
    pseudo-label weight it reads comes from ``AdaptConfig``."""

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError, match="lambda0"):
            AdaptConfig(lambda0=-0.1)
        # sweeps and per-seed runs derive their configs with dataclasses.replace
        with pytest.raises(ValueError, match="lambda0"):
            replace(AdaptConfig(), lambda0=-0.1)


class TestLogFloor:
    def test_zero_probabilities_do_not_produce_nan(self):
        p = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss, grad = entropy_loss(p)
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad))
        loss2, grad2 = cross_entropy(p, np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.isfinite(loss2)
        assert np.all(np.isfinite(grad2))
        # the clamp bounds the blow-up at -log(LOG_FLOOR) per row
        assert loss2 <= -np.log(LOG_FLOOR) + 1e-9
