"""Label propagation over a cosine k-nearest-neighbour graph.

Nodes are feature rows arranged in three contiguous blocks: ground-truth
labeled rows first, then augmented seed rows (unlabeled rows promoted to
seeds on the strength of a confident prediction), then the remaining
unlabeled rows. Edge weights are ``exp(cosine similarity)`` sparsified to
the k strongest neighbours per row, symmetrised, and degree-normalised,
which keeps the spectral radius at 1. The damped system
``(I - alpha * W) Z = Y`` is then symmetric positive definite with
eigenvalues in [1 - alpha, 1 + alpha] for any ``alpha`` in (0, 1), and
conjugate gradient solves it over the k-NN nonzeros of ``W``.

Scores never overwrite seeds: pseudo labels are read off only for the
unlabeled block, and callers keep seed rows bound to their seed classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg

# A score column is solved once its residual is at most this fraction of the
# norm of its seed column.
CG_RTOL = 1e-14

# Conjugate-gradient iterations allowed beyond the condition-number bound.
CG_ITER_MARGIN = 20


class PropagationError(RuntimeError):
    """Raised when the propagation solve fails to converge."""


@dataclass
class GraphLayout:
    """Sizes of the labeled / augmented / unlabeled node blocks, in order."""

    n_labeled: int
    n_augmented: int
    n_unlabeled: int

    @property
    def n_nodes(self) -> int:
        return self.n_labeled + self.n_augmented + self.n_unlabeled

    @property
    def n_seeds(self) -> int:
        return self.n_labeled + self.n_augmented

    @property
    def unlabeled_slice(self) -> slice:
        return slice(self.n_seeds, self.n_nodes)


@dataclass
class PropagationGraph:
    features: np.ndarray  # (n, d) node features
    w_norm: np.ndarray  # (n, n) normalised edge weights, zero diagonal
    seed_labels: np.ndarray  # (n, K) one-hot for seeds, zero rows otherwise
    layout: GraphLayout


@dataclass
class PropagationResult:
    scores: np.ndarray  # (n, K) propagated class scores for every node
    pseudo_labels: np.ndarray  # (n_unlabeled,) argmax over the unlabeled block
    confidence: np.ndarray  # (n_unlabeled,) max score / row sum, 0 on dead rows


def build_graph(
    features,
    seed_classes,
    num_classes: int,
    k_hat: int,
    n_labeled: int | None = None,
) -> PropagationGraph:
    """Assemble the propagation graph for one epoch.

    ``seed_classes`` holds one entry per row: a class index for seed rows
    and -1 (or None) for unlabeled rows. Seed rows must form a prefix of the
    node order; ``n_labeled`` says how many of them carry ground truth (the
    rest of the prefix are augmented seeds) and defaults to all of them.
    """
    features = linalg.require_matrix(features, "features")
    n = features.shape[0]
    classes = np.array(
        [-1 if c is None else int(c) for c in np.asarray(seed_classes, dtype=object)],
        dtype=np.int64,
    )
    if classes.shape[0] != n:
        raise ValueError("seed_classes must give one entry per feature row")
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if np.any(classes >= num_classes):
        raise ValueError("seed class out of range")
    if k_hat < 1:
        raise ValueError(f"k_hat must be >= 1, got {k_hat}")

    seeded = classes >= 0
    n_seeds = int(seeded.sum())
    if n_seeds == 0:
        raise ValueError("graph needs at least one seed row")
    if not np.all(seeded[:n_seeds]):
        raise ValueError("seed rows must form a contiguous prefix of the node order")
    if n_labeled is None:
        n_labeled = n_seeds
    if not 0 <= n_labeled <= n_seeds:
        raise ValueError(f"n_labeled must be in [0, {n_seeds}], got {n_labeled}")

    sim = linalg.cosine_similarity_matrix(features)
    weights = np.exp(sim)
    np.fill_diagonal(weights, 0.0)
    weights = linalg.topk_sparsify_rows(weights, k_hat)
    weights = (weights + weights.T) / 2.0
    w_norm = linalg.symmetric_normalize(weights)

    seed_labels = np.zeros((n, num_classes))
    seed_rows = np.arange(n_seeds)
    seed_labels[seed_rows, classes[:n_seeds]] = 1.0

    layout = GraphLayout(
        n_labeled=n_labeled,
        n_augmented=n_seeds - n_labeled,
        n_unlabeled=n - n_seeds,
    )
    return PropagationGraph(features, w_norm, seed_labels, layout)


def _cg_budget(alpha: float) -> int:
    """CG iterations that reach ``CG_RTOL`` on ``I - alpha * W``, plus the margin.

    The condition number is at most ``kappa = (1 + alpha) / (1 - alpha)``,
    and after k iterations CG's residual is at most
    ``2 sqrt(kappa) rate**k`` times the first, with
    ``rate = (sqrt(kappa) - 1) / (sqrt(kappa) + 1)``.
    """
    root = math.sqrt((1.0 + alpha) / (1.0 - alpha))
    rate = (root - 1.0) / (root + 1.0)
    bound = math.ceil(math.log(CG_RTOL / (2.0 * root)) / math.log(rate)) if rate > 0.0 else 1
    return bound + CG_ITER_MARGIN


def propagate(graph: PropagationGraph, alpha: float) -> PropagationResult:
    """Solve (I - alpha * W) Z = Y by conjugate gradient over the nonzeros of W.

    Rows in a graph component without seeds get exactly zero scores, since
    the system is block-diagonal across components. Pseudo labels are the
    row argmax over the unlabeled block (ties go to the lowest class index).
    Confidence is the winning score divided by the row sum; rows that
    received no mass (disconnected nodes) get confidence zero and fall back
    to class 0 via the tie rule. Raises ``PropagationError`` naming the
    iteration count and the residual if the solve exceeds its budget.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    n = graph.w_norm.shape[0]
    rows, cols = np.nonzero(graph.w_norm)
    diagonal = np.arange(n)
    try:
        scores = linalg.sparse_cg_solve(
            np.concatenate([rows, diagonal]),
            np.concatenate([cols, diagonal]),
            np.concatenate([-alpha * graph.w_norm[rows, cols], np.ones(n)]),
            graph.seed_labels,
            CG_RTOL,
            _cg_budget(alpha),
        )
    except linalg.ConvergenceError as exc:
        raise PropagationError(f"propagation did not converge: {exc}") from exc

    block = scores[graph.layout.unlabeled_slice]
    pseudo = np.argmax(block, axis=1)
    row_sum = block.sum(axis=1)
    row_max = block.max(axis=1) if block.size else np.zeros(0)
    confidence = np.where(row_sum > 1e-12, row_max / np.maximum(row_sum, 1e-12), 0.0)
    return PropagationResult(scores=scores, pseudo_labels=pseudo, confidence=confidence)


def dump_graph_debug(
    graph: PropagationGraph, result: PropagationResult, edges_path, scores_path
) -> None:
    """Write the upper-triangle edge list and score matrix as delimited text."""
    edges_path = Path(edges_path)
    scores_path = Path(scores_path)
    rows, cols = np.nonzero(np.triu(graph.w_norm, k=1))
    with open(edges_path, "w", encoding="ascii") as handle:
        handle.write("i\tj\tweight\n")
        for i, j in zip(rows, cols):
            handle.write(f"{i}\t{j}\t{graph.w_norm[i, j]:.17g}\n")
    with open(scores_path, "w", encoding="ascii") as handle:
        header = "\t".join(f"class_{k}" for k in range(graph.seed_labels.shape[1]))
        handle.write(header + "\n")
        for row in result.scores:
            handle.write("\t".join(f"{v:.17g}" for v in row) + "\n")
