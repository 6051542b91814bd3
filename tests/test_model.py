"""Tests for the network: forward, backward, MC dropout, checkpoints.

The backward pass is checked against a central finite-difference oracle on
every parameter tensor and on the inputs, for several architectures and
seeds, driving the network through a real scalar loss (cross entropy of the
softmaxed logits) rather than synthetic gradient seeds.
"""

import numpy as np
import pytest

from meshadapt import model
from meshadapt.linalg import matmul, row_softmax
from meshadapt.losses import cross_entropy
from meshadapt.model import (
    ModelParams,
    backward,
    bottleneck_features,
    forward,
    init_model,
    load_model,
    mc_dropout_predict,
    save_model,
)


def scalar_loss(params, x, y):
    logits, cache = forward(params, x)
    loss, dlogits = cross_entropy(row_softmax(logits), y)
    return loss, dlogits, cache


def fd_param_gradient(params, x, y, tensor, h=1e-6):
    """Central difference of the loss w.r.t. one tensor, entry by entry."""
    grad = np.zeros_like(tensor)
    flat = tensor.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = scalar_loss(params, x, y)[0]
        flat[i] = orig - h
        down = scalar_loss(params, x, y)[0]
        flat[i] = orig
        out[i] = (up - down) / (2 * h)
    return grad


def per_pass_mc_oracle(params, x, passes, dropout_rate, seed):
    """Mean softmax over one explicitly masked forward per pass.

    Pass ``i`` draws its masks from ``default_rng(s_i)``, ``s_i`` the ``i``-th
    draw of ``default_rng(seed)``: one ``rng.random`` block per encoder
    layer, in layer order, each applied after that layer's activation.
    """
    act = np.tanh if params.activation == "tanh" else lambda z: np.maximum(z, 0.0)
    pass_seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=passes)
    total = None
    for pass_seed in pass_seeds:
        rng = np.random.default_rng(int(pass_seed))
        hidden = x
        for layer in params.encoder:
            hidden = act(matmul(hidden, layer.weight) + layer.bias)
            mask = (rng.random(hidden.shape) >= dropout_rate) / (1.0 - dropout_rate)
            hidden = hidden * mask
        for layer in (params.bottleneck, params.classifier):
            hidden = matmul(hidden, layer.weight) + layer.bias
        proba = row_softmax(hidden)
        total = proba if total is None else total + proba
    return total / passes


def gradient_bytes(grads):
    """Every parameter gradient of a ``backward`` list as bytes, None for a skipped layer."""
    return [None if g is None else (g[0].tobytes(), g[1].tobytes()) for g in grads]


def make_problem(seed, dims):
    rng = np.random.default_rng(seed)
    net = init_model(dims, seed=seed)
    x = rng.standard_normal((5, dims[0]))
    labels = rng.integers(0, dims[-1], size=5)
    y = np.zeros((5, dims[-1]))
    y[np.arange(5), labels] = 1.0
    return net, x, y


class TestInitModel:
    def test_dims_round_trip(self):
        net = init_model([3, 8, 4, 2], seed=0)
        assert net.dims() == [3, 8, 4, 2]
        assert len(net.encoder) == 1
        assert net.encoder[0].weight.shape == (3, 8)
        assert net.bottleneck.weight.shape == (8, 4)
        assert net.classifier.weight.shape == (4, 2)

    def test_deeper_encoder(self):
        net = init_model([3, 8, 6, 4, 2], seed=0)
        assert len(net.encoder) == 2
        assert net.dims() == [3, 8, 6, 4, 2]

    def test_same_seed_identical(self):
        a = init_model([3, 6, 4, 2], seed=11)
        b = init_model([3, 6, 4, 2], seed=11)
        for la, lb in zip(a.encoder + [a.bottleneck, a.classifier],
                          b.encoder + [b.bottleneck, b.classifier]):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)

    def test_different_seed_differs(self):
        a = init_model([3, 6, 4, 2], seed=1)
        b = init_model([3, 6, 4, 2], seed=2)
        assert not np.array_equal(a.encoder[0].weight, b.encoder[0].weight)

    def test_zero_bias_and_glorot_bound(self):
        net = init_model([5, 7, 4, 3], seed=5)
        for layer in net.encoder + [net.bottleneck, net.classifier]:
            assert np.all(layer.bias == 0.0)
            fan_in, fan_out = layer.weight.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(layer.weight) <= bound)

    def test_errors(self):
        with pytest.raises(ValueError, match="dims"):
            init_model([3, 4, 2], seed=0)
        with pytest.raises(ValueError, match="activation"):
            init_model([3, 4, 4, 2], seed=0, activation="sigmoid")
        with pytest.raises(ValueError, match="positive"):
            init_model([3, 0, 4, 2], seed=0)


class TestForward:
    def test_shapes_and_cache(self):
        net, x, _ = make_problem(0, [3, 6, 4, 2])
        logits, cache = forward(net, x)
        assert logits.shape == (5, 2)
        assert [a.shape for a in cache.inputs] == [(5, 3), (5, 6), (5, 4)]
        assert np.array_equal(cache.logits, logits)
        assert np.array_equal(cache.inputs[0], x)

    def test_deterministic(self):
        net, x, _ = make_problem(1, [3, 6, 4, 2])
        a, _ = forward(net, x)
        b, _ = forward(net, x)
        assert np.array_equal(a, b)

    def test_linear_consistency_when_activation_inactive(self):
        # relu on positive preactivations is the identity, so the network
        # composes to an affine map we can evaluate independently
        net = init_model([2, 3, 3, 2], seed=3, activation="relu")
        for layer in net.encoder + [net.bottleneck, net.classifier]:
            layer.weight[:] = np.abs(layer.weight)
            layer.bias[:] = 0.1
        x = np.abs(np.random.default_rng(4).standard_normal((4, 2)))
        logits, _ = forward(net, x)
        h = x @ net.encoder[0].weight + net.encoder[0].bias
        f = h @ net.bottleneck.weight + net.bottleneck.bias
        expected = f @ net.classifier.weight + net.classifier.bias
        assert np.allclose(logits, expected, atol=1e-12)

    def test_dropout_masks_follow_one_seeded_stream(self):
        # forward draws no masks; a one-pass MC forward applies, layer by
        # layer, the next rng.random block of the single stream its pass seed starts
        net, x, _ = make_problem(3, [3, 7, 6, 4, 2])
        (pass_seed,) = np.random.default_rng(9).integers(0, 2**63 - 1, size=1)
        rng = np.random.default_rng(int(pass_seed))
        hidden = x
        for layer in net.encoder:
            hidden = np.tanh(matmul(hidden, layer.weight) + layer.bias)
            hidden = hidden * ((rng.random(hidden.shape) >= 0.3) / (1.0 - 0.3))
        for layer in (net.bottleneck, net.classifier):
            hidden = matmul(hidden, layer.weight) + layer.bias
        mean = mc_dropout_predict(net, x, passes=1, dropout_rate=0.3, seed=9)
        assert mean.tobytes() == row_softmax(hidden).tobytes()
        assert not np.array_equal(mean, row_softmax(forward(net, x)[0]))

    def test_input_dim_mismatch(self):
        net, _, _ = make_problem(5, [3, 6, 4, 2])
        with pytest.raises(ValueError, match="columns"):
            forward(net, np.zeros((2, 4)))


class TestBottleneckFeatures:
    def test_matches_forward_cache(self):
        net, x, _ = make_problem(6, [3, 6, 4, 2])
        _, cache = forward(net, x)
        feats = bottleneck_features(net, x)
        assert np.array_equal(feats, cache.inputs[-1])


class TestBackward:
    @pytest.mark.parametrize("dims", [[3, 6, 4, 2], [4, 8, 5, 3], [2, 5, 5, 3, 4]])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, dims, seed):
        net, x, y = make_problem(seed, dims)
        loss, dlogits, cache = scalar_loss(net, x, y)
        grads, _ = backward(net, cache, dlogits)

        pairs = []
        for (w_grad, b_grad), (_, layer) in zip(grads, net.layers(), strict=True):
            pairs.append((w_grad, layer.weight))
            pairs.append((b_grad, layer.bias))

        for analytic, tensor in pairs:
            fd = fd_param_gradient(net, x, y, tensor)
            scale = max(float(np.abs(fd).max()), 1e-8)
            assert np.allclose(analytic, fd, atol=1e-4 * scale)

    def test_input_gradient_matches_fd(self):
        net, x, y = make_problem(7, [3, 6, 4, 2])
        _, dlogits, cache = scalar_loss(net, x, y)
        _, d_x = backward(net, cache, dlogits)
        h = 1e-6
        fd = np.zeros_like(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                xp = x.copy()
                xp[i, j] += h
                xm = x.copy()
                xm[i, j] -= h
                fd[i, j] = (scalar_loss(net, xp, y)[0] - scalar_loss(net, xm, y)[0]) / (2 * h)
        scale = max(float(np.abs(fd).max()), 1e-8)
        assert np.allclose(d_x, fd, atol=1e-4 * scale)

    def test_frozen_groups_get_no_gradients(self):
        net, x, y = make_problem(8, [3, 6, 4, 2])
        net.frozen.add("classifier")
        _, dlogits, cache = scalar_loss(net, x, y)
        grads, _ = backward(net, cache, dlogits)
        assert [group for group, _ in net.layers()] == ["encoder", "bottleneck", "classifier"]
        assert grads[2] is None
        assert grads[1] is not None
        # gradients still flow through the frozen head to earlier groups
        assert float(np.abs(grads[0][0]).max()) > 0.0

    @pytest.mark.parametrize("dims", [[3, 6, 4, 2], [2, 5, 5, 3, 4]])
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("frozen", [set(), {"classifier"}, {"encoder"}])
    def test_partial_passes_match_full_bitwise(self, dims, relu, frozen):
        net, x, y = make_problem(16, dims)
        net.activation = "relu" if relu else "tanh"
        net.frozen = set(frozen)
        logits, cache = forward(net, x)
        _, dlogits = cross_entropy(row_softmax(logits), y)
        full, full_d_x = backward(net, cache, dlogits)
        assert [g is None for g in full] == [g in frozen for g, _ in net.layers()]

        no_input, no_d_x = backward(net, cache, dlogits, input_grad=False)
        assert no_d_x is None
        assert gradient_bytes(no_input) == gradient_bytes(full)

        input_only, d_x = backward(net, cache, dlogits, param_grads=False)
        assert input_only == [None] * len(net.layers())
        assert d_x.tobytes() == full_d_x.tobytes()

    def test_cache_mismatch_rejected(self):
        net, x, y = make_problem(10, [3, 6, 4, 2])
        other = init_model([3, 7, 4, 2], seed=0)
        _, cache = forward(other, x)
        with pytest.raises(ValueError):
            backward(net, cache, np.zeros((5, 2)))

    def test_dlogits_shape_rejected(self):
        net, x, _ = make_problem(11, [3, 6, 4, 2])
        _, cache = forward(net, x)
        with pytest.raises(ValueError):
            backward(net, cache, np.zeros((5, 3)))


class TestMcDropout:
    def test_mean_on_simplex(self):
        net, x, _ = make_problem(12, [3, 10, 4, 3])
        mean = mc_dropout_predict(net, x, passes=10, dropout_rate=0.5, seed=0)
        assert mean.shape == (5, 3)
        assert np.all(mean > 0)
        assert np.allclose(mean.sum(axis=1), 1.0, atol=1e-9)

    def test_seeded_reproducible(self):
        net, x, _ = make_problem(13, [3, 10, 4, 3])
        a = mc_dropout_predict(net, x, passes=5, dropout_rate=0.5, seed=21)
        b = mc_dropout_predict(net, x, passes=5, dropout_rate=0.5, seed=21)
        c = mc_dropout_predict(net, x, passes=5, dropout_rate=0.5, seed=22)
        clean = row_softmax(forward(net, x)[0])
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, clean)

    def test_zero_rate_equals_plain_softmax(self):
        net, x, _ = make_problem(14, [3, 10, 4, 3])
        mean = mc_dropout_predict(net, x, passes=3, dropout_rate=0.0, seed=0)
        logits, _ = forward(net, x)
        assert np.allclose(mean, row_softmax(logits), atol=1e-12)

    @pytest.mark.parametrize("dims", [[3, 10, 4, 3], [3, 7, 6, 4, 3]])
    @pytest.mark.parametrize("rate", [0.5, 0.2, 0.0])
    def test_matches_per_pass_forward_bitwise(self, dims, rate):
        net, x, _ = make_problem(16, dims)
        x = np.vstack([x, -x, 2 * x])
        mean = mc_dropout_predict(net, x, passes=4, dropout_rate=rate, seed=17)
        expected = per_pass_mc_oracle(net, x, passes=4, dropout_rate=rate, seed=17)
        assert mean.tobytes() == expected.tobytes()

    def test_input_errors(self):
        net, x, _ = make_problem(15, [3, 10, 4, 3])
        with pytest.raises(ValueError, match="columns"):
            mc_dropout_predict(net, x[:, :2], passes=2, dropout_rate=0.5, seed=0)
        with pytest.raises(ValueError, match="dropout_rate"):
            mc_dropout_predict(net, x, passes=2, dropout_rate=1.0, seed=0)

    def test_passes_must_be_positive(self):
        net, x, _ = make_problem(15, [3, 10, 4, 3])
        with pytest.raises(ValueError):
            mc_dropout_predict(net, x, passes=0, dropout_rate=0.5, seed=0)


class TestCheckpointRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        net = init_model([3, 6, 4, 2], seed=17)
        net.frozen.add("classifier")
        path = tmp_path / "model.txt"
        save_model(net, path)
        loaded = load_model(path)
        assert loaded.dims() == net.dims()
        assert loaded.activation == net.activation
        assert loaded.frozen == {"classifier"}
        for la, lb in zip(net.encoder + [net.bottleneck, net.classifier],
                          loaded.encoder + [loaded.bottleneck, loaded.classifier]):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)

    def test_round_trip_preserves_predictions(self, tmp_path):
        net = init_model([4, 8, 5, 3], seed=19, activation="relu")
        x = np.random.default_rng(20).standard_normal((6, 4))
        path = tmp_path / "model.txt"
        save_model(net, path)
        loaded = load_model(path)
        a, _ = forward(net, x)
        b, _ = forward(loaded, x)
        assert np.array_equal(a, b)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError):
            load_model(path)

    def _edited_checkpoint(self, tmp_path, line_index, text):
        path = tmp_path / "model.txt"
        save_model(init_model([3, 6, 4, 2], seed=29), path)
        lines = path.read_text().split("\n")
        lines[line_index] = text
        path.write_text("\n".join(lines))
        return path

    def test_unknown_activation_rejected(self, tmp_path):
        path = self._edited_checkpoint(tmp_path, 1, "activation sigmoid")
        with pytest.raises(ValueError, match=r"model\.txt: unknown activation 'sigmoid' on line 2"):
            load_model(path)

    def test_unknown_frozen_group_rejected(self, tmp_path):
        path = self._edited_checkpoint(tmp_path, 2, "frozen classifier,head")
        with pytest.raises(ValueError, match=r"model\.txt: unknown frozen group 'head' on line 3"):
            load_model(path)

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_entry_rejected(self, tmp_path, token):
        # line 7 is the second of the three rows of encoder.0.weight (3 x 6)
        path = self._edited_checkpoint(tmp_path, 6, " ".join([token] * 6))
        with pytest.raises(
            ValueError, match=r"model\.txt: non-finite entry in tensor encoder\.0\.weight on line 7"
        ):
            load_model(path)

    def test_missing_file_errors(self, tmp_path):
        with pytest.raises(OSError):
            load_model(tmp_path / "absent.txt")


class TestModelParamsCopy:
    def test_copy_is_deep(self):
        net = init_model([3, 6, 4, 2], seed=23)
        dup = net.copy()
        dup.encoder[0].weight[0, 0] += 1.0
        dup.frozen.add("encoder")
        assert net.encoder[0].weight[0, 0] != dup.encoder[0].weight[0, 0]
        assert "encoder" not in net.frozen


def test_groups_and_activations_constants():
    assert model.GROUPS == ("encoder", "bottleneck", "classifier")
    assert set(model.ACTIVATIONS) == {"tanh", "relu"}
    assert isinstance(ModelParams.__dataclass_fields__, dict)
