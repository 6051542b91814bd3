"""Prediction uncertainty from stochastic dropout and seed selection.

Running the network several times with dropout enabled and averaging the
softmax outputs gives a smoothed predictive distribution; its Shannon
entropy serves as the per-sample uncertainty score. The most certain
prediction within each predicted class is promoted to an extra propagation
seed, so at most one seed per class is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model
from .losses import LOG_FLOOR


@dataclass
class UncertaintyReport:
    mean_proba: np.ndarray  # (n, K) mean softmax over dropout passes
    entropy: np.ndarray  # (n,) entropy of the mean, in nats
    predicted_class: np.ndarray  # (n,) argmax of the mean


@dataclass
class AugmentedSeeds:
    indices: np.ndarray  # (s,) row indices into the scored batch
    classes: np.ndarray  # (s,) predicted class of each selected row


def estimate_uncertainty(
    params: model.ModelParams,
    x,
    passes: int,
    dropout_rate: float,
    seed: int,
) -> UncertaintyReport:
    if len(x) == 0:
        raise ValueError("empty batch")
    mean_proba = model.mc_dropout_predict(params, x, passes, dropout_rate, seed)
    plogp = np.where(mean_proba > 0.0, mean_proba * np.log(np.maximum(mean_proba, LOG_FLOOR)), 0.0)
    entropy = -plogp.sum(axis=1)
    predicted = np.argmax(mean_proba, axis=1)
    return UncertaintyReport(mean_proba, entropy, predicted)


def select_low_uncertainty(report: UncertaintyReport, num_classes: int) -> AugmentedSeeds:
    """Pick the lowest-entropy sample per predicted class.

    Classes nobody predicts contribute no seed. Entropy ties resolve to the
    lowest row index.
    """
    if report.entropy.shape[0] == 0:
        raise ValueError("empty report")
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    indices: list[int] = []
    classes: list[int] = []
    for c in range(num_classes):
        candidates = np.flatnonzero(report.predicted_class == c)
        if candidates.size == 0:
            continue
        best = candidates[int(np.argmin(report.entropy[candidates]))]
        indices.append(int(best))
        classes.append(c)
    return AugmentedSeeds(np.array(indices, dtype=np.int64), np.array(classes, dtype=np.int64))
