"""A small feed-forward classifier split into encoder, bottleneck, and head.

The network is organised as three named parameter groups so that training
stages can freeze them independently:

* ``encoder``     one or more hidden layers with a saturating activation,
* ``bottleneck``  a single linear projection (no activation),
* ``classifier``  a linear layer producing class logits.

``forward`` is deterministic and caches each layer's input for ``backward``,
which returns one ``(weight, bias)`` gradient per layer in
``ModelParams.layers()`` order plus the gradient with respect to the inputs
(the adversarial-smoothing loss needs it). Dropout exists only inside
``mc_dropout_predict``, the MC-dropout uncertainty score. All randomness
(initialisation, dropout masks) is driven by explicit integer seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg

GROUPS = ("encoder", "bottleneck", "classifier")
ACTIVATIONS = ("tanh", "relu")

_CHECKPOINT_MAGIC = "meshadapt-checkpoint"
_CHECKPOINT_VERSION = "v1"


@dataclass
class LinearLayer:
    weight: np.ndarray  # (fan_in, fan_out)
    bias: np.ndarray  # (fan_out,)

    def copy(self) -> "LinearLayer":
        return LinearLayer(self.weight.copy(), self.bias.copy())


@dataclass
class ModelParams:
    encoder: list[LinearLayer]
    bottleneck: LinearLayer
    classifier: LinearLayer
    activation: str = "tanh"
    frozen: set[str] = field(default_factory=set)

    def layers(self) -> list[tuple[str, LinearLayer]]:
        """Every layer with its group, in forward order: encoder..., bottleneck, classifier."""
        return [
            *(("encoder", layer) for layer in self.encoder),
            ("bottleneck", self.bottleneck),
            ("classifier", self.classifier),
        ]

    def dims(self) -> list[int]:
        return [self.encoder[0].weight.shape[0]] + [
            layer.weight.shape[1] for _, layer in self.layers()
        ]

    def copy(self) -> "ModelParams":
        return ModelParams(
            encoder=[layer.copy() for layer in self.encoder],
            bottleneck=self.bottleneck.copy(),
            classifier=self.classifier.copy(),
            activation=self.activation,
            frozen=set(self.frozen),
        )


@dataclass
class ForwardCache:
    """One forward pass: ``inputs[i]`` fed ``params.layers()[i]``; consumed by ``backward``."""

    inputs: list[np.ndarray]
    logits: np.ndarray


def init_model(dims: list[int], seed: int, activation: str = "tanh") -> ModelParams:
    """Build a model for layer sizes ``dims``.

    ``dims`` lists input dim, one or more hidden dims, the bottleneck dim,
    and the class count, in that order, so it needs at least four entries.
    Weights are drawn uniformly from (-s, s) with s = sqrt(6 / (fan_in +
    fan_out)); biases start at zero.
    """
    if len(dims) < 4:
        raise ValueError(f"dims needs input, hidden, bottleneck, classes; got {dims}")
    if any(int(d) <= 0 for d in dims):
        raise ValueError(f"dims must be positive, got {dims}")
    if activation not in ACTIVATIONS:
        raise ValueError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
    dims = [int(d) for d in dims]
    rng = np.random.default_rng(seed)

    def draw(fan_in: int, fan_out: int) -> LinearLayer:
        scale = np.sqrt(6.0 / (fan_in + fan_out))
        weight = rng.uniform(-scale, scale, size=(fan_in, fan_out))
        return LinearLayer(weight, np.zeros(fan_out))

    encoder = [draw(dims[i], dims[i + 1]) for i in range(len(dims) - 3)]
    bottleneck = draw(dims[-3], dims[-2])
    classifier = draw(dims[-2], dims[-1])
    return ModelParams(encoder, bottleneck, classifier, activation=activation)


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "tanh":
        return np.tanh(z)
    return np.maximum(z, 0.0)


def _activation_grad(a: np.ndarray, activation: str) -> np.ndarray:
    # Both derivatives are recoverable from the post-activation value.
    if activation == "tanh":
        return 1.0 - a * a
    return (a > 0.0).astype(np.float64)


def _check_input(params: ModelParams, x) -> np.ndarray:
    x = linalg.require_matrix(x, "x")
    input_dim = params.encoder[0].weight.shape[0]
    if x.shape[1] != input_dim:
        raise ValueError(f"x has {x.shape[1]} columns, model expects {input_dim}")
    return x


def _encoder_layer(layer: LinearLayer, hidden: np.ndarray, activation: str) -> np.ndarray:
    return _activate(linalg.matmul(hidden, layer.weight) + layer.bias, activation)


def forward(params: ModelParams, x) -> tuple[np.ndarray, ForwardCache]:
    """Run the deterministic network on a batch, returning logits and a backward cache.

    Each layer's output is the next layer's input, so the cache holds only
    those inputs (``x``, every encoder activation, the bottleneck output) and
    the logits.
    """
    inputs = [_check_input(params, x)]
    for layer in params.encoder:
        inputs.append(_encoder_layer(layer, inputs[-1], params.activation))
    inputs.append(linalg.matmul(inputs[-1], params.bottleneck.weight) + params.bottleneck.bias)
    logits = linalg.matmul(inputs[-1], params.classifier.weight) + params.classifier.bias
    return logits, ForwardCache(inputs, logits)


def bottleneck_features(params: ModelParams, x) -> np.ndarray:
    """Bottleneck outputs for a batch (the classifier's cached input)."""
    _, cache = forward(params, x)
    return cache.inputs[-1]


def backward(
    params: ModelParams,
    cache: ForwardCache,
    dlogits,
    input_grad: bool = True,
    param_grads: bool = True,
) -> tuple[list[tuple[np.ndarray, np.ndarray] | None], np.ndarray | None]:
    """Backpropagate a logit-space gradient seed through the cached pass.

    Returns ``(grads, d_x)``. ``grads[i]`` is the ``(weight, bias)`` gradient
    of ``params.layers()[i]``, or None when that layer's group is frozen;
    ``d_x`` is the gradient with respect to the network input. Gradients
    still flow *through* frozen groups; freezing only suppresses their
    parameter entries.

    A caller computes only what it reads: ``input_grad=False`` skips the
    first layer's input gradient (``d_x`` is None), and ``param_grads=False``
    skips every parameter gradient as if all groups were frozen. Whatever is
    computed has the same bits as in a full pass.
    """
    layers = params.layers()
    if len(cache.inputs) != len(layers) or any(
        hidden.shape[1] != layer.weight.shape[0]
        for hidden, (_, layer) in zip(cache.inputs, layers)
    ):
        raise ValueError("cache does not match model: layer count or width differs")
    if dlogits.shape != cache.logits.shape:
        raise ValueError(
            f"dlogits shape {dlogits.shape} does not match logits {cache.logits.shape}"
        )
    frozen = params.frozen if param_grads else set(GROUPS)

    grads: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(layers)
    d_out = dlogits
    for i in range(len(layers) - 1, -1, -1):
        group, layer = layers[i]
        if group == "encoder":
            d_out = d_out * _activation_grad(cache.inputs[i + 1], params.activation)
        if group not in frozen:
            grads[i] = (linalg.matmul(cache.inputs[i].T, d_out), d_out.sum(axis=0))
        d_out = linalg.matmul(d_out, layer.weight.T) if i > 0 or input_grad else None
    return grads, d_out


def mc_dropout_predict(
    params: ModelParams,
    x,
    passes: int,
    dropout_rate: float,
    seed: int,
) -> np.ndarray:
    """Mean softmax output over ``passes`` stochastic dropout forwards.

    This is the only stochastic pass of the package (MC dropout, used to
    score uncertainty). Pass ``i`` is ``forward`` with inverted dropout
    (kept units scale by 1/(1-rate)) after each hidden encoder activation.
    Its masks are ``rng.random(act.shape) >= rate`` drawn one layer after
    the other from ``rng = default_rng(s_i)``, with ``s_i`` the ``i``-th draw
    of ``default_rng(seed)``. Dropout acts only after the first encoder
    activation, so ``act(x W1 + b1)`` is computed once and shared by all
    passes.
    """
    if passes < 1:
        raise ValueError(f"passes must be >= 1, got {passes}")
    x = _check_input(params, x)
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError(f"dropout_rate must be in [0, 1), got {dropout_rate}")

    def drop(act: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return act * ((rng.random(act.shape) >= dropout_rate) / (1.0 - dropout_rate))

    first_act = _encoder_layer(params.encoder[0], x, params.activation)
    pass_seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=passes)
    total = None
    for pass_seed in pass_seeds:
        rng = np.random.default_rng(int(pass_seed))
        hidden = drop(first_act, rng)
        for layer in params.encoder[1:]:
            hidden = drop(_encoder_layer(layer, hidden, params.activation), rng)
        bottleneck_out = linalg.matmul(hidden, params.bottleneck.weight) + params.bottleneck.bias
        logits = linalg.matmul(bottleneck_out, params.classifier.weight) + params.classifier.bias
        proba = linalg.row_softmax(logits)
        total = proba if total is None else total + proba
    return total / passes


def _format_tensor(name: str, value: np.ndarray) -> list[str]:
    mat = np.atleast_2d(np.asarray(value, dtype=np.float64))
    lines = [f"tensor {name} {mat.shape[0]} {mat.shape[1]}"]
    for row in mat:
        lines.append(" ".join(float(v).hex() for v in row))
    return lines


def save_model(params: ModelParams, path) -> None:
    """Write a checkpoint whose read-back is bit-exact (hex float encoding)."""
    lines = [
        f"{_CHECKPOINT_MAGIC} {_CHECKPOINT_VERSION}",
        f"activation {params.activation}",
        "frozen " + (",".join(sorted(params.frozen)) if params.frozen else "-"),
        "dims " + " ".join(str(d) for d in params.dims()),
    ]
    for i, layer in enumerate(params.encoder):
        lines.extend(_format_tensor(f"encoder.{i}.weight", layer.weight))
        lines.extend(_format_tensor(f"encoder.{i}.bias", layer.bias))
    lines.extend(_format_tensor("bottleneck.weight", params.bottleneck.weight))
    lines.extend(_format_tensor("bottleneck.bias", params.bottleneck.bias))
    lines.extend(_format_tensor("classifier.weight", params.classifier.weight))
    lines.extend(_format_tensor("classifier.bias", params.classifier.bias))
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def load_model(path) -> ModelParams:
    with open(path, "r", encoding="ascii") as handle:
        lines = [line.rstrip("\n") for line in handle]
    if not lines or lines[0].split() != [_CHECKPOINT_MAGIC, _CHECKPOINT_VERSION]:
        raise ValueError(f"{path}: not a {_CHECKPOINT_MAGIC} {_CHECKPOINT_VERSION} file")

    def expect(index: int, key: str) -> list[str]:
        parts = lines[index].split()
        if not parts or parts[0] != key:
            raise ValueError(f"{path}: expected '{key}' on line {index + 1}")
        return parts[1:]

    activation = expect(1, "activation")[0]
    if activation not in ACTIVATIONS:
        raise ValueError(
            f"{path}: unknown activation {activation!r} on line 2, expected one of {ACTIVATIONS}"
        )
    frozen_field = expect(2, "frozen")[0]
    frozen = set() if frozen_field == "-" else set(frozen_field.split(","))
    unknown = sorted(frozen - set(GROUPS))
    if unknown:
        raise ValueError(
            f"{path}: unknown frozen group {unknown[0]!r} on line 3, expected names from {GROUPS}"
        )
    dims = [int(d) for d in expect(3, "dims")]

    tensors: dict[str, np.ndarray] = {}
    cursor = 4
    while cursor < len(lines):
        parts = lines[cursor].split()
        if len(parts) != 4 or parts[0] != "tensor":
            raise ValueError(f"{path}: malformed tensor header on line {cursor + 1}")
        name, rows, cols = parts[1], int(parts[2]), int(parts[3])
        block = lines[cursor + 1 : cursor + 1 + rows]
        if len(block) != rows:
            raise ValueError(f"{path}: truncated tensor {name}")
        mat = np.array(
            [[float.fromhex(tok) for tok in line.split()] for line in block],
            dtype=np.float64,
        )
        if mat.shape != (rows, cols):
            raise ValueError(f"{path}: tensor {name} has wrong shape")
        bad_rows = np.flatnonzero(~np.isfinite(mat).all(axis=1))
        if bad_rows.size:
            raise ValueError(
                f"{path}: non-finite entry in tensor {name} on line {cursor + 2 + bad_rows[0]}"
            )
        tensors[name] = mat
        cursor += 1 + rows

    n_encoder = len(dims) - 3
    encoder = [
        LinearLayer(
            tensors[f"encoder.{i}.weight"],
            tensors[f"encoder.{i}.bias"].ravel(),
        )
        for i in range(n_encoder)
    ]
    bottleneck = LinearLayer(
        tensors["bottleneck.weight"], tensors["bottleneck.bias"].ravel()
    )
    classifier = LinearLayer(
        tensors["classifier.weight"], tensors["classifier.bias"].ravel()
    )
    params = ModelParams(encoder, bottleneck, classifier, activation, frozen)
    if params.dims() != dims:
        raise ValueError(f"{path}: tensor shapes disagree with declared dims")
    return params
