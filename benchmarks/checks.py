"""Correctness checks computed apart from the program under test.

Each check recomputes a property of an output with plain NumPy ``@``,
``numpy.linalg`` or ``scipy.sparse`` instead of the package's own
fixed-order kernels, and raises ``CheckFailed`` naming what disagreed.
They run after the timed rounds, so they cost no measured time.
"""

from __future__ import annotations

import numpy as np

# Logit margins below this are ties whose argmax may differ between a BLAS
# product and the package's fixed-order product; only such rows may disagree.
TIE_MARGIN = 1e-9
# The normalised graph has spectral radius exactly 1 in exact arithmetic.
SPECTRAL_TOL = 1e-10
# Propagated scores are a Neumann series of nonnegative terms; the dense
# elimination may leave rounding noise of this size below zero.
SCORE_FLOOR = -1e-12
# Largest score difference allowed against the sparse LU reference. Scores
# are bounded by 1 / (1 - alpha) = 10 and the system's condition number by
# (1 + alpha) / (1 - alpha) = 19, so both solves agree far below this.
SOLVE_TOL = 1e-9
# Row sums of averaged softmax outputs.
SIMPLEX_TOL = 1e-12


class CheckFailed(AssertionError):
    """An output of the program disagreed with its independent recomputation."""


def numpy_logits(params, x: np.ndarray) -> np.ndarray:
    """Dropout-free forward pass written with NumPy's ``@``."""
    hidden = x
    for layer in params.encoder:
        pre = hidden @ layer.weight + layer.bias
        if params.activation == "tanh":
            hidden = np.tanh(pre)
        elif params.activation == "relu":
            hidden = np.maximum(pre, 0.0)
        else:
            raise CheckFailed(f"unknown activation {params.activation!r}")
    z = hidden @ params.bottleneck.weight + params.bottleneck.bias
    return z @ params.classifier.weight + params.classifier.bias


def check_accuracy(params, features: np.ndarray, truth: np.ndarray, reported: float) -> float:
    """Recompute test accuracy; ``reported`` may differ only through logit ties."""
    logits = numpy_logits(params, features)
    correct = np.argmax(logits, axis=1) == truth
    top2 = np.sort(logits, axis=1)[:, -2:]
    ties = int(np.count_nonzero(top2[:, 1] - top2[:, 0] < TIE_MARGIN))
    recomputed = float(correct.mean())
    if abs(recomputed - reported) * truth.size > ties + 1e-9:
        raise CheckFailed(
            f"reported accuracy {reported!r} but a NumPy forward gives {recomputed!r} "
            f"({ties} tied rows)"
        )
    return recomputed


def check_above_chance(accuracy: float, num_classes: int) -> None:
    if not accuracy > 1.0 / num_classes:
        raise CheckFailed(f"accuracy {accuracy!r} is not above chance 1/{num_classes}")


def check_frozen(before: tuple[bytes, bytes], params) -> None:
    after = (params.classifier.weight.tobytes(), params.classifier.bias.tobytes())
    if after != before:
        raise CheckFailed("classifier weights changed during adaptation")


def check_graph(w_norm: np.ndarray, seed_labels: np.ndarray, alpha: float, scores: np.ndarray) -> None:
    """Invariants of the normalised graph and of the scores propagated over it."""
    from scipy.sparse import csc_matrix, identity
    from scipy.sparse.linalg import spsolve

    if not np.array_equal(w_norm, w_norm.T):
        raise CheckFailed("w_norm is not symmetric")
    if np.any(w_norm < 0.0):
        raise CheckFailed("w_norm has a negative entry")
    if np.any(np.diag(w_norm) != 0.0):
        raise CheckFailed("w_norm has a nonzero diagonal entry")
    radius = float(np.max(np.abs(np.linalg.eigvalsh(w_norm))))
    if radius > 1.0 + SPECTRAL_TOL:
        raise CheckFailed(f"w_norm has spectral radius {radius!r} > 1")
    if np.min(scores) < SCORE_FLOOR:
        raise CheckFailed(f"propagated score {np.min(scores)!r} is negative")
    n = w_norm.shape[0]
    system = csc_matrix(identity(n) - alpha * csc_matrix(w_norm))
    reference = spsolve(system, seed_labels)
    err = float(np.max(np.abs(reference - scores)))
    if not err <= SOLVE_TOL:
        raise CheckFailed(f"propagated scores differ from a sparse LU solve by {err!r}")


def check_simplex(mean_proba: np.ndarray) -> None:
    if np.any(mean_proba < 0.0):
        raise CheckFailed("MC-dropout mean has a negative entry")
    err = float(np.max(np.abs(mean_proba.sum(axis=1) - 1.0)))
    if not err <= SIMPLEX_TOL:
        raise CheckFailed(f"MC-dropout mean rows miss the simplex by {err!r}")
