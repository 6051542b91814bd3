"""Training objectives for frozen-head target adaptation.

Every objective here consumes softmax probabilities ``p`` (rows on the
simplex) and returns both the scalar loss, averaged over the batch, and the
gradient of that loss with respect to the *logits* that produced ``p``. The
logit-space seeds are what ``model.backward`` expects, and deriving them
through the softmax composite keeps them exact even where a clamp protects
the log:

* cross entropy with target mass ``s_i`` per row:   (s_i * p - y) / B
* entropy of the predictions:                       -p * (log p + H_row) / B
* divergence KL(p_ref || q) with p_ref constant:    (q - p_ref) / B
* diversity (negative entropy of the batch mean):   p * (g - <p, g>) / B
                                                    with g = log(mean p)

The adversarial-smoothing loss perturbs inputs along the direction that
most increases the divergence from the clean prediction, found by power
iteration on input gradients; the clean branch is held constant.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import linalg, model

# Floor applied inside every logarithm; keeps 0 * log(0) contributions finite.
LOG_FLOOR = 1e-12


def _safe_log(p: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(p, LOG_FLOOR))


def smooth_labels(labels, num_classes: int, eps: float) -> np.ndarray:
    """One-hot rows softened to 1-eps on the true class and eps/K elsewhere.

    Note the rows deliberately sum to 1 - eps/K rather than 1; the smoothing
    assigns eps/K to every class and 1-eps to the true one, nothing more.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError("labels must be a 1-D integer array")
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"eps must be in [0, 1), got {eps}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range")
    out = np.full((labels.size, num_classes), eps / num_classes)
    out[np.arange(labels.size), labels] = 1.0 - eps
    return out


def cross_entropy(p, targets) -> tuple[float, np.ndarray]:
    """Mean cross entropy -sum(y * log p) and its logit gradient.

    ``targets`` rows may carry any nonnegative mass (one-hot or smoothed);
    the gradient accounts for rows whose mass differs from 1.
    """
    if p.shape != targets.shape:
        raise ValueError(f"p {p.shape} and targets {targets.shape} differ in shape")
    batch = p.shape[0]
    if batch == 0:
        raise ValueError("empty batch")
    loss = float(-(targets * _safe_log(p)).sum(axis=1).mean())
    row_mass = targets.sum(axis=1, keepdims=True)
    dlogits = (p * row_mass - targets) / batch
    return loss, dlogits


def entropy_loss(p) -> tuple[float, np.ndarray]:
    """Mean Shannon entropy of the prediction rows (to be minimised)."""
    if p.shape[0] == 0:
        raise ValueError("empty batch")
    batch = p.shape[0]
    plogp = np.where(p > 0.0, p * _safe_log(p), 0.0)
    row_entropy = -plogp.sum(axis=1)
    loss = float(row_entropy.mean())
    dlogits = -(p * (_safe_log(p) + row_entropy[:, None])) / batch
    return loss, dlogits


def pseudo_ce_loss(p, pseudo) -> tuple[float, np.ndarray]:
    """One-hot cross entropy against integer pseudo labels."""
    pseudo = np.asarray(pseudo)
    if pseudo.ndim != 1 or pseudo.shape[0] != p.shape[0]:
        raise ValueError("pseudo labels must be 1-D and match the batch")
    if pseudo.size and (pseudo.min() < 0 or pseudo.max() >= p.shape[1]):
        raise ValueError("pseudo label out of range")
    onehot = np.zeros_like(p)
    onehot[np.arange(p.shape[0]), pseudo] = 1.0
    return cross_entropy(p, onehot)


def kl_divergence(p, q) -> float:
    """Mean KL(p || q) over rows with q clamped away from zero."""
    if p.shape != q.shape:
        raise ValueError(f"p {p.shape} and q {q.shape} differ in shape")
    if p.shape[0] == 0:
        raise ValueError("empty batch")
    terms = np.where(p > 0.0, p * (_safe_log(p) - _safe_log(q)), 0.0)
    return float(terms.sum(axis=1).mean())


def diversity_loss(p) -> tuple[float, np.ndarray]:
    """Negative entropy of the batch-mean prediction.

    Minimal (-log K) when the batch covers the classes uniformly, so adding
    it discourages collapse of all predictions onto one class.
    """
    if p.shape[0] == 0:
        raise ValueError("empty batch")
    batch = p.shape[0]
    p_mean = p.mean(axis=0)
    loss = float(np.where(p_mean > 0.0, p_mean * _safe_log(p_mean), 0.0).sum())
    g = _safe_log(p_mean)[None, :]
    dlogits = p * (g - (p * g).sum(axis=1, keepdims=True)) / batch
    return loss, dlogits


class VatResult(NamedTuple):
    """Adversarial smoothing loss plus the pieces needed to backprop it."""

    loss: float
    perturbation: np.ndarray
    dlogits: np.ndarray  # gradient seed on the perturbed branch
    cache: model.ForwardCache  # cache of the perturbed forward pass


def _normalize_rows(v: np.ndarray, fallback: np.ndarray | None) -> np.ndarray:
    """Scale each row to unit L2 norm.

    Rows with near-zero norm fall back to the corresponding row of
    ``fallback`` (the current direction) or, if none is given, to the first
    basis vector.
    """
    norms = np.sqrt((v * v).sum(axis=1, keepdims=True))
    ok = norms[:, 0] > 1e-300
    out = np.zeros_like(v)
    out[ok] = v[ok] / norms[ok]
    if not np.all(ok):
        if fallback is None:
            out[~ok, 0] = 1.0
        else:
            out[~ok] = fallback[~ok]
    return out


def vat_loss(
    params: model.ModelParams,
    x,
    eps_vat: float,
    xi: float | None = None,
    power_iters: int = 1,
    seed: int = 0,
    probe: np.ndarray | None = None,
    p_ref: np.ndarray | None = None,
) -> VatResult:
    """Divergence between clean predictions and an adversarially shifted copy.

    The perturbation direction is estimated per row by ``power_iters`` rounds
    of power iteration: probe the model at ``x + xi * d``, backprop the
    divergence to the input, renormalise. Those backwards compute only the
    input gradient. The final perturbation has L2 norm ``eps_vat`` on every
    row. The clean branch is treated as a constant, so the returned gradient
    seed lives entirely on the perturbed forward pass.

    ``p_ref`` is the clean prediction ``row_softmax(forward(params, x))``
    when the caller already has it (the training step does); without it the
    clean forward runs here. Passing it changes no bit of the result, since
    every row of a forward depends on that row of ``x`` alone.

    ``probe`` overrides the random initial direction (its scale is irrelevant
    because of the normalisation); it exists for reproducibility experiments.
    """
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    if eps_vat <= 0.0:
        raise ValueError(f"eps_vat must be positive, got {eps_vat}")
    if power_iters < 1:
        raise ValueError(f"power_iters must be >= 1, got {power_iters}")
    if xi is None:
        xi = 1e-6 * np.sqrt(x.shape[1])
    if xi <= 0.0:
        raise ValueError(f"xi must be positive, got {xi}")

    if p_ref is None:
        p_ref = linalg.row_softmax(model.forward(params, x)[0])
    elif p_ref.shape != (x.shape[0], params.classifier.weight.shape[1]):
        raise ValueError("p_ref must hold one prediction row per row of x")
    batch = x.shape[0]

    if probe is None:
        probe = np.random.default_rng(seed).standard_normal(x.shape)
    elif probe.shape != x.shape:
        raise ValueError("probe must match the shape of x")
    direction = _normalize_rows(probe, fallback=None)

    for _ in range(power_iters):
        logits_probe, cache_probe = model.forward(params, x + xi * direction)
        q_probe = linalg.row_softmax(logits_probe)
        _, d_x = model.backward(params, cache_probe, (q_probe - p_ref) / batch, param_grads=False)
        direction = _normalize_rows(d_x, fallback=direction)

    perturbation = eps_vat * direction
    logits_adv, cache_adv = model.forward(params, x + perturbation)
    q_adv = linalg.row_softmax(logits_adv)
    loss = kl_divergence(p_ref, q_adv)
    dlogits = (q_adv - p_ref) / batch
    return VatResult(loss, perturbation, dlogits, cache_adv)
