"""Training stages: source pretraining and frozen-head target adaptation.

The adaptation stage owns the central training loop. The classifier weights
are frozen at entry and verified bit-identical at exit; only the encoder and
bottleneck move. Each epoch first refreshes pseudo labels (stochastic-pass
uncertainty picks extra seeds, then label propagation over bottleneck
features scores every unlabeled row), then takes ``steps_per_epoch`` joint
gradient steps mixing a labeled batch with an unlabeled batch.

Ground truth for unlabeled rows is consumed *only* by the diagnostic
accuracy columns of the report. Losses and updates are independent of it,
which a test enforces by permuting the hidden labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import linalg, losses, model, propagation, uncertainty
from .data import Dataset

_REPORT_MAGIC = "train-report"
_REPORT_VERSION = "v1"
_EPOCH_FIELDS = (
    "epoch",
    "l_lab",
    "l_ent",
    "l_ps",
    "l_vadv",
    "l_div",
    "l_total",
    "pseudo_acc",
    "seed_acc",
    "test_acc",
)
_LOSS_FIELDS = _EPOCH_FIELDS[1:7]


@dataclass
class AdaptConfig:
    """Hyperparameters shared by pretraining and adaptation.

    ``lambda0`` weights the pseudo-label loss inside the regulariser;
    ``alpha`` damps the propagation; ``k_hat`` is the per-row neighbour
    count of the propagation graph. The ``no_*`` switches ablate individual
    regularisation terms (``no_ps`` also skips building the graph, and
    ``no_augmentation`` keeps propagation but drops the uncertainty-selected
    extra seeds). ``vat_xi`` of ``None`` defers to a probe scale of
    1e-6 * sqrt(input_dim).
    """

    lambda0: float = field(default=0.5, metadata={"help": "weight of the pseudo-label loss"})
    alpha: float = field(default=0.9, metadata={"help": "propagation damping in (0, 1)"})
    k_hat: int = field(default=10, metadata={"help": "neighbours kept per graph row"})
    eps_smooth: float = field(
        default=0.1, metadata={"help": "label smoothing amount for pretraining"}
    )
    eps_vat: float = field(
        default=1.0, metadata={"help": "L2 radius of the adversarial perturbation"}
    )
    vat_xi: float | None = field(
        default=None, metadata={"help": "probe scale for power iteration"}
    )
    vat_power_iters: int = field(default=1, metadata={"help": "power iteration rounds"})
    lr_encoder: float = field(default=0.001, metadata={"help": "encoder learning rate"})
    lr_bottleneck: float = field(default=0.01, metadata={"help": "bottleneck learning rate"})
    lr_classifier: float = field(
        default=0.01, metadata={"help": "classifier learning rate (pretraining)"}
    )
    momentum: float = field(default=0.9, metadata={"help": "SGD momentum"})
    batch_size: int = field(default=64, metadata={"help": "minibatch size"})
    epochs: int = field(default=150, metadata={"help": "adaptation epochs"})
    pretrain_epochs: int = field(default=50, metadata={"help": "source pretraining epochs"})
    steps_per_epoch: int | None = field(
        default=None, metadata={"help": "steps per epoch (default: one unlabeled pass)"}
    )
    mc_passes: int = field(default=10, metadata={"help": "stochastic passes for uncertainty"})
    dropout_rate: float = field(
        default=0.5, metadata={"help": "dropout rate for stochastic passes"}
    )
    hidden_dims: tuple[int, ...] = field(
        default=(32,), metadata={"help": "comma-separated encoder widths"}
    )
    bottleneck_dim: int = field(default=8, metadata={"help": "bottleneck width"})
    seed: int = field(default=2021, metadata={"help": "run seed"})
    no_augmentation: bool = field(
        default=False, metadata={"help": "disable uncertainty-selected extra seeds"}
    )
    no_ent: bool = field(default=False, metadata={"help": "disable the entropy term"})
    no_ps: bool = field(default=False, metadata={"help": "disable pseudo-label propagation"})
    no_vat: bool = field(default=False, metadata={"help": "disable adversarial smoothing"})
    no_div: bool = field(default=False, metadata={"help": "disable the diversity term"})

    def __post_init__(self) -> None:
        if self.lambda0 < 0.0:
            raise ValueError(f"lambda0 must be nonnegative, got {self.lambda0}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.k_hat < 1:
            raise ValueError(f"k_hat must be >= 1, got {self.k_hat}")
        if not 0.0 <= self.eps_smooth < 1.0:
            raise ValueError(f"eps_smooth must be in [0, 1), got {self.eps_smooth}")
        if self.eps_vat <= 0.0:
            raise ValueError(f"eps_vat must be positive, got {self.eps_vat}")
        if self.vat_power_iters < 1:
            raise ValueError("vat_power_iters must be >= 1")
        for name in ("lr_encoder", "lr_bottleneck", "lr_classifier"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        for name in ("batch_size", "epochs", "pretrain_epochs", "mc_passes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.steps_per_epoch is not None and self.steps_per_epoch < 1:
            raise ValueError("steps_per_epoch must be >= 1 when given")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not self.hidden_dims or any(int(h) < 1 for h in self.hidden_dims):
            raise ValueError("hidden_dims must list positive sizes")
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)
        if self.bottleneck_dim < 1:
            raise ValueError("bottleneck_dim must be >= 1")

    def model_dims(self, input_dim: int, num_classes: int) -> list[int]:
        return [input_dim, *self.hidden_dims, self.bottleneck_dim, num_classes]


@dataclass
class EpochRecord:
    epoch: int
    l_lab: float
    l_ent: float
    l_ps: float
    l_vadv: float
    l_div: float
    l_total: float
    pseudo_acc: float  # nan when propagation is ablated or truth unknown
    seed_acc: float  # nan without augmented seeds
    test_acc: float  # nan without a test block


@dataclass
class TrainReport:
    records: list[EpochRecord] = field(default_factory=list)
    final_accuracy: float = float("nan")


def write_train_report(report: TrainReport, path) -> None:
    """Serialise a report with a stable field order (byte-reproducible)."""
    lines = [
        f"{_REPORT_MAGIC} {_REPORT_VERSION}",
        f"epochs {len(report.records)}",
        f"final_accuracy {report.final_accuracy!r}",
        "\t".join(_EPOCH_FIELDS),
    ]
    for rec in report.records:
        lines.append(
            "\t".join(
                str(rec.epoch) if name == "epoch" else repr(getattr(rec, name))
                for name in _EPOCH_FIELDS
            )
        )
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def evaluate(net: model.ModelParams, data: Dataset) -> float:
    """Argmax accuracy against stored ground truth (deterministic forward)."""
    if data.n == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    if np.any(data.truth < 0):
        raise ValueError("evaluation needs ground truth for every row")
    logits, _ = model.forward(net, data.features)
    predicted = np.argmax(logits, axis=1)
    return float((predicted == data.truth).mean())


class _Cycler:
    """Endless pass over an index range, reshuffled on every exhaustion."""

    def __init__(self, n: int, rng: np.random.Generator) -> None:
        self._n = n
        self._rng = rng
        self._order = rng.permutation(n)
        self._pos = 0

    def take(self, count: int) -> np.ndarray:
        out = []
        while len(out) < count:
            if self._pos == self._n:
                self._order = self._rng.permutation(self._n)
                self._pos = 0
            out.append(self._order[self._pos])
            self._pos += 1
        return np.array(out, dtype=np.int64)


def _sgd_step(
    layers: list[model.LinearLayer],
    grads: list[model.LayerGrads],
    velocity: list[model.LayerGrads],
    lr: float,
    momentum: float,
) -> None:
    for layer, grad, vel in zip(layers, grads, velocity):
        vel.weight = momentum * vel.weight + grad.weight
        vel.bias = momentum * vel.bias + grad.bias
        layer.weight -= lr * vel.weight
        layer.bias -= lr * vel.bias


def _zero_velocity(layers: list[model.LinearLayer]) -> list[model.LayerGrads]:
    return [
        model.LayerGrads(np.zeros_like(layer.weight), np.zeros_like(layer.bias))
        for layer in layers
    ]


def _group(owner, name: str) -> list:
    """One group's layers (of ModelParams) or layer gradients (of Gradients) as a list."""
    value = getattr(owner, name)
    return value if isinstance(value, list) else [value]


class _MomentumSGD:
    """Momentum SGD on every group not in ``params.frozen``, each at ``cfg.lr_<group>``."""

    def __init__(self, params: model.ModelParams, cfg: AdaptConfig) -> None:
        self._params = params
        self._momentum = cfg.momentum
        self._lr = {g: getattr(cfg, f"lr_{g}") for g in model.GROUPS if g not in params.frozen}
        self._velocity = {g: _zero_velocity(_group(params, g)) for g in self._lr}

    def step(self, contributions: list[model.Gradients]) -> None:
        """Sum the gradient contributions in list order, then update each group."""
        for g, lr in self._lr.items():
            total = _group(contributions[0], g)
            for extra in contributions[1:]:
                total = [
                    model.LayerGrads(t.weight + e.weight, t.bias + e.bias)
                    for t, e in zip(total, _group(extra, g))
                ]
            _sgd_step(_group(self._params, g), total, self._velocity[g], lr, self._momentum)


def _require_finite(where: str, terms: dict) -> None:
    """Raise naming ``where`` and the term when a loss or its logit gradient is not finite."""
    for name, (value, dlogits) in terms.items():
        if not (math.isfinite(value) and np.all(np.isfinite(dlogits))):
            raise ValueError(f"{where}: loss term {name} is not finite (value {value!r})")


def pretrain_source(
    net: model.ModelParams, source: Dataset, cfg: AdaptConfig
) -> model.ModelParams:
    """Fit all three parameter groups on the labeled source domain.

    Minimises label-smoothed cross entropy with momentum SGD over the rows
    tagged ``train``; the returned parameters are the snapshot with the best
    accuracy on the ``val`` rows (earliest epoch wins ties). A loss value or
    logit gradient that is not finite raises ``ValueError`` naming the epoch,
    the step and the term ``l_src``.
    """
    train = source.subset("train")
    val = source.subset("val")
    if train.n == 0 or val.n == 0:
        raise ValueError("source dataset needs both train and val rows")
    counts = np.bincount(train.labels, minlength=source.num_classes)
    if np.any(counts < 2):
        short = int(np.flatnonzero(counts < 2)[0])
        raise ValueError(f"class {short} has fewer than 2 train samples")

    params = net.copy()
    rng = np.random.default_rng(cfg.seed)
    smoothed = losses.smooth_labels(train.labels, source.num_classes, cfg.eps_smooth)
    sgd = _MomentumSGD(params, cfg)

    best_acc = -1.0
    best_params = params.copy()
    for epoch in range(1, cfg.pretrain_epochs + 1):
        order = rng.permutation(train.n)
        for step, start in enumerate(range(0, train.n, cfg.batch_size), start=1):
            batch = order[start : start + cfg.batch_size]
            logits, cache = model.forward(params, train.features[batch])
            proba = linalg.row_softmax(logits)
            loss, dlogits = losses.cross_entropy(proba, smoothed[batch])
            _require_finite(f"pretrain epoch {epoch}, step {step}", {"l_src": (loss, dlogits)})
            sgd.step([model.backward(params, cache, dlogits, input_grad=False)])
        acc = evaluate(params, val)
        if acc > best_acc:
            best_acc = acc
            best_params = params.copy()
    return best_params


def _classifier_fingerprint(params: model.ModelParams) -> tuple[bytes, bytes]:
    return params.classifier.weight.tobytes(), params.classifier.bias.tobytes()


def _refresh_pseudo_labels(
    params: model.ModelParams,
    x_labeled: np.ndarray,
    y_labeled: np.ndarray,
    x_unlabeled: np.ndarray,
    truth_unlabeled: np.ndarray,
    num_classes: int,
    cfg: AdaptConfig,
    rng: np.random.Generator,
    debug_paths: tuple[Path, Path] | None,
) -> tuple[np.ndarray, float, float]:
    """One propagation round; returns (pseudo labels, pseudo acc, seed acc)."""
    n_labeled = x_labeled.shape[0]
    m = x_unlabeled.shape[0]
    all_features = model.bottleneck_features(params, np.vstack([x_labeled, x_unlabeled]))

    if cfg.no_augmentation:
        seed_rows = np.zeros(0, dtype=np.int64)
        seed_classes = np.zeros(0, dtype=np.int64)
    else:
        mc_seed = int(rng.integers(0, 2**63 - 1))
        report = uncertainty.estimate_uncertainty(
            params, x_unlabeled, cfg.mc_passes, cfg.dropout_rate, mc_seed
        )
        picked = uncertainty.select_low_uncertainty(report, num_classes)
        seed_rows, seed_classes = picked.indices, picked.classes

    rest_rows = np.setdiff1d(np.arange(m), seed_rows, assume_unique=False)
    order = np.concatenate([seed_rows, rest_rows])
    features = np.vstack([all_features[:n_labeled], all_features[n_labeled:][order]])
    classes = np.concatenate(
        [y_labeled, seed_classes, np.full(rest_rows.size, -1, dtype=np.int64)]
    )
    graph = propagation.build_graph(
        features, classes, num_classes, cfg.k_hat, n_labeled=n_labeled
    )
    result = propagation.propagate(graph, cfg.alpha)

    pseudo = np.empty(m, dtype=np.int64)
    pseudo[seed_rows] = seed_classes
    pseudo[rest_rows] = result.pseudo_labels
    if debug_paths is not None:
        propagation.dump_graph_debug(graph, result, *debug_paths)

    truth_known = bool(truth_unlabeled.size) and bool(np.all(truth_unlabeled >= 0))
    pseudo_acc = float((pseudo == truth_unlabeled).mean()) if truth_known else float("nan")
    if seed_rows.size and truth_known:
        seed_acc = float((seed_classes == truth_unlabeled[seed_rows]).mean())
    else:
        seed_acc = float("nan")
    return pseudo, pseudo_acc, seed_acc


def _train_step(
    params: model.ModelParams,
    sgd: _MomentumSGD,
    cfg: AdaptConfig,
    xb_l: np.ndarray,
    yb_l: np.ndarray,
    xb_u: np.ndarray | None,
    pseudo_u: np.ndarray | None,
    rng: np.random.Generator,
    where: str,
) -> losses.LossBundle:
    """One joint SGD step on a labeled batch and, when a term needs it, an unlabeled batch.

    Each clean forward runs once: VAT takes the labeled and unlabeled
    probabilities as its clean reference instead of recomputing them, and
    the backwards skip the input gradient nobody reads. A loss value or
    logit gradient that is not finite raises ``ValueError`` naming ``where``
    (the epoch and step) and the term.
    """
    logits_l, cache_l = model.forward(params, xb_l)
    proba_l = linalg.row_softmax(logits_l)
    onehot = np.zeros_like(proba_l)
    onehot[np.arange(yb_l.size), yb_l] = 1.0
    terms = {"l_lab": losses.cross_entropy(proba_l, onehot)}

    cache_u = proba_u = None
    if not (cfg.no_ent and cfg.no_ps and cfg.no_div):
        logits_u, cache_u = model.forward(params, xb_u)
        proba_u = linalg.row_softmax(logits_u)
        if not cfg.no_ent:
            terms["l_ent"] = losses.entropy_loss(proba_u)
        if not cfg.no_ps:
            terms["l_ps"] = losses.pseudo_ce_loss(proba_u, pseudo_u)
        if not cfg.no_div:
            terms["l_div"] = losses.diversity_loss(proba_u)

    vat_result = None
    if not cfg.no_vat:
        if proba_u is None:
            proba_u = linalg.row_softmax(model.forward(params, xb_u)[0])
        vat_result = losses.vat_loss(
            params, np.vstack([xb_l, xb_u]), cfg.eps_vat, xi=cfg.vat_xi,
            power_iters=cfg.vat_power_iters, seed=int(rng.integers(0, 2**63 - 1)),
            p_ref=np.vstack([proba_l, proba_u]),
        )
        terms["l_vadv"] = (vat_result.loss, vat_result.dlogits)
    _require_finite(where, terms)

    bundle = losses.total_reg(
        terms["l_lab"], terms.get("l_ent"), terms.get("l_ps"),
        vat_result.loss if vat_result is not None else None,
        terms.get("l_div"), cfg.lambda0,
    )
    contributions = [(cache_l, bundle.dlogits_labeled)]
    if cache_u is not None and bundle.dlogits_unlabeled is not None:
        contributions.append((cache_u, bundle.dlogits_unlabeled))
    if vat_result is not None:
        contributions.append((vat_result.cache, vat_result.dlogits))
    sgd.step([
        model.backward(params, cache, dlogits, input_grad=False)
        for cache, dlogits in contributions
    ])
    return bundle


def adapt(
    net: model.ModelParams,
    target: Dataset,
    cfg: AdaptConfig,
    debug_graph_dir=None,
) -> tuple[model.ModelParams, TrainReport]:
    """Adapt encoder and bottleneck to a partially labeled target domain.

    The classifier group is frozen for the whole run (verified bit-exact at
    exit). The only inputs are the target dataset and the config; per-epoch
    diagnostics additionally read the stored ground truth of unlabeled rows,
    which influences nothing but the report's accuracy columns.
    """
    labeled = target.split == "labeled"
    unlabeled = target.split == "unlabeled"
    if not labeled.any():
        raise ValueError("target has no labeled rows")
    if not unlabeled.any():
        raise ValueError("target has no unlabeled rows")
    num_classes = target.num_classes
    y_labeled = target.labels[labeled]
    covered = np.unique(y_labeled)
    if covered.size < num_classes:
        missing = sorted(set(range(num_classes)) - set(covered.tolist()))
        raise ValueError(f"labeled target rows missing class(es) {missing}")

    classifier_width = net.classifier.weight.shape[1]
    if classifier_width != num_classes:
        raise ValueError(
            f"model predicts {classifier_width} classes, dataset has {num_classes}"
        )

    x_labeled = target.features[labeled]
    x_unlabeled = target.features[unlabeled]
    truth_unlabeled = target.truth[unlabeled]
    r = x_labeled.shape[0]
    m = x_unlabeled.shape[0]
    has_test = bool((target.split == "test").any())
    test_set = target.subset("test") if has_test else None

    params = net.copy()
    params.frozen = set(params.frozen) | {"classifier"}
    frozen_before = _classifier_fingerprint(params)

    rng = np.random.default_rng(cfg.seed)
    labeled_cycler = _Cycler(r, rng)
    steps = cfg.steps_per_epoch or math.ceil(m / cfg.batch_size)
    sgd = _MomentumSGD(params, cfg)
    need_unlabeled_batch = not (cfg.no_ent and cfg.no_ps and cfg.no_div and cfg.no_vat)

    if debug_graph_dir is not None:
        debug_graph_dir = Path(debug_graph_dir)
        debug_graph_dir.mkdir(parents=True, exist_ok=True)

    report = TrainReport()
    for epoch in range(1, cfg.epochs + 1):
        pseudo = None
        pseudo_acc = float("nan")
        seed_acc = float("nan")
        if not cfg.no_ps:
            debug_paths = None
            if debug_graph_dir is not None:
                debug_paths = (
                    debug_graph_dir / f"edges_epoch_{epoch:03d}.tsv",
                    debug_graph_dir / f"scores_epoch_{epoch:03d}.tsv",
                )
            pseudo, pseudo_acc, seed_acc = _refresh_pseudo_labels(
                params, x_labeled, y_labeled, x_unlabeled, truth_unlabeled,
                num_classes, cfg, rng, debug_paths,
            )

        sums = dict.fromkeys(_LOSS_FIELDS, 0.0)
        for step in range(1, steps + 1):
            batch_l = labeled_cycler.take(min(cfg.batch_size, r))
            xb_u = pseudo_u = None
            if need_unlabeled_batch:
                batch_u = rng.choice(m, size=min(cfg.batch_size, m), replace=False)
                xb_u = x_unlabeled[batch_u]
                if pseudo is not None:
                    pseudo_u = pseudo[batch_u]
            bundle = _train_step(
                params, sgd, cfg, x_labeled[batch_l], y_labeled[batch_l], xb_u, pseudo_u,
                rng, f"epoch {epoch}, step {step}",
            )
            for name in _LOSS_FIELDS:
                sums[name] += getattr(bundle, name)

        test_acc = evaluate(params, test_set) if test_set is not None else float("nan")
        report.records.append(
            EpochRecord(
                epoch=epoch,
                **{name: total / steps for name, total in sums.items()},
                pseudo_acc=pseudo_acc,
                seed_acc=seed_acc,
                test_acc=test_acc,
            )
        )

    if _classifier_fingerprint(params) != frozen_before:
        raise RuntimeError("internal invariant violated: frozen classifier changed")
    report.final_accuracy = report.records[-1].test_acc if report.records else float("nan")
    return params, report
