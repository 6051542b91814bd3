"""Tests for graph construction and label propagation.

Three independent oracles check the conjugate-gradient solver path: the
damped fixed-point iteration ``propagate_iterative_oracle`` defined here
(Neumann series, converges geometrically), the dense elimination
``linalg.solve_linear``, and a hand-solved two-node system.
``dense_graph_oracle`` is the graph build with a full n x n array at every
stage; the in-place, row-blocked ``build_graph`` must match it by bytes.
Graph-construction invariants are exercised directly on the returned
weight matrix.
"""

import math
import tracemalloc

import numpy as np
import pytest

from meshadapt import linalg, propagation
from meshadapt.propagation import (
    GraphLayout,
    PropagationError,
    PropagationGraph,
    build_graph,
    dump_graph_debug,
    propagate,
)


def propagate_iterative_oracle(
    graph: PropagationGraph, alpha: float, iters: int
) -> np.ndarray:
    """Reference scores by damped fixed-point iteration Z <- alpha*W*Z + Y.

    Kept deliberately independent of the solver path (dense products
    instead of sparse conjugate gradient) so the two can cross-check each
    other. Convergence is geometric at rate ``alpha``.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")
    scores = graph.seed_labels.copy()
    for _ in range(iters):
        scores = alpha * linalg.matmul(graph.w_norm, scores) + graph.seed_labels
    return scores


def dense_graph_oracle(features, k_hat: int) -> np.ndarray:
    """Reference ``w_norm``: cosine, exp, top-k, symmetrise and normalise,
    each stage a new n x n array computed over the whole matrix at once."""
    x = np.asarray(features, dtype=np.float64)
    unit = x / np.sqrt((x * x).sum(axis=1))[:, None]
    sim = linalg.matmul(unit, unit.T)
    np.fill_diagonal(sim, 1.0)
    sim = np.clip(sim, -1.0, 1.0)
    weights = np.exp(sim)
    np.fill_diagonal(weights, 0.0)
    weights = linalg.topk_sparsify_rows(weights, k_hat)
    weights = (weights + weights.T) / 2.0
    degree = weights.sum(axis=1)
    positive = degree > 0.0
    inv_sqrt = np.zeros_like(degree)
    inv_sqrt[positive] = 1.0 / np.sqrt(degree[positive])
    return weights * np.outer(inv_sqrt, inv_sqrt)


def tied_features(n: int, seed: int, relu: bool) -> np.ndarray:
    """Bottleneck-like rows with duplicates spread over the row blocks.

    Rows 0-4 repeat at the end and in the middle, and row 1 repeats every
    37 rows, so many rows see crowded ties for their last top-k slots. The
    ``relu`` variant has exact zeros, so some cosines are exactly 0.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 8))
    if relu:
        x = np.maximum(x, 0.0)
        x[:, 0] = np.abs(x[:, 0]) + 0.1  # no zero-norm rows
    if n >= 50:
        x[n - 5 :] = x[:5]
        x[n // 2 : n // 2 + 5] = x[:5]
        x[37::37] = x[1]
    return x


# n = 181 is one full block (32768 // 181 = 181 rows); 182 and 604 end in a
# short block (180 + 2, 11 * 54 + 10 rows).
GRAPH_CASES = [
    (n, k)
    for n in (2, 3, 50, 181, 182, 604)
    for k in (1, 2, 3, 10)
    if k < n
]


def random_graph(seed, n=30, num_classes=3, k_hat=5, n_seeds=6):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, 4))
    classes = np.full(n, -1)
    classes[:n_seeds] = rng.integers(0, num_classes, size=n_seeds)
    return build_graph(features, classes, num_classes, k_hat)


class TestGraphLayout:
    def test_counts(self):
        layout = GraphLayout(n_seeds=5, n_unlabeled=10)
        assert layout.n_nodes == 15
        assert layout.n_seeds == 5
        assert layout.unlabeled_slice == slice(5, 15)


class TestBuildGraph:
    def test_weight_matrix_invariants(self):
        graph = random_graph(0)
        w = graph.w_norm
        assert np.array_equal(w, w.T)
        assert np.all(np.diag(w) == 0.0)
        assert np.all(w >= 0.0)
        eigs = np.linalg.eigvalsh(w)
        assert np.max(np.abs(eigs)) <= 1.0 + 1e-12

    def test_row_support_bounded_by_symmetrization(self):
        # each row keeps its own k strongest edges plus any edges kept by
        # the transposed row, so support is between k_hat and 2 * k_hat
        graph = random_graph(1, n=40, k_hat=4)
        support = (graph.w_norm > 0).sum(axis=1)
        assert np.all(support >= 1)
        assert np.all(support <= 8)

    def test_seed_label_matrix(self):
        features = np.random.default_rng(2).standard_normal((6, 3))
        classes = np.array([1, 0, -1, -1, -1, -1])
        graph = build_graph(features, classes, num_classes=2, k_hat=2)
        expected = np.zeros((6, 2))
        expected[0, 1] = 1.0
        expected[1, 0] = 1.0
        assert np.array_equal(graph.seed_labels, expected)
        assert graph.layout.n_seeds == 2
        assert graph.layout.n_unlabeled == 4

    def test_augmented_block_accounting(self):
        # labeled and augmented seeds form one prefix and count alike
        features = np.random.default_rng(3).standard_normal((8, 3))
        classes = np.array([0, 1, 1, 0, -1, -1, -1, -1])
        graph = build_graph(features, classes, num_classes=2, k_hat=3)
        assert graph.layout.n_seeds == 4
        assert graph.layout.unlabeled_slice == slice(4, 8)

    def test_seed_prefix_enforced(self):
        features = np.random.default_rng(4).standard_normal((5, 3))
        classes = np.array([0, -1, 1, -1, -1])
        with pytest.raises(ValueError, match="contiguous prefix"):
            build_graph(features, classes, num_classes=2, k_hat=2)

    def test_requires_a_seed(self):
        features = np.random.default_rng(5).standard_normal((4, 3))
        with pytest.raises(ValueError, match="at least one seed"):
            build_graph(features, np.full(4, -1), num_classes=2, k_hat=2)

    def test_parameter_errors(self):
        features = np.random.default_rng(6).standard_normal((4, 3))
        classes = np.array([0, -1, -1, -1])
        with pytest.raises(ValueError, match="one entry per"):
            build_graph(features, classes[:2], num_classes=2, k_hat=2)
        with pytest.raises(ValueError, match="num_classes"):
            build_graph(features, classes, num_classes=1, k_hat=2)
        with pytest.raises(ValueError, match="out of range"):
            build_graph(features, np.array([5, -1, -1, -1]), num_classes=2, k_hat=2)
        with pytest.raises(ValueError, match="out of range"):
            build_graph(features, np.array([0, -2, -1, -1]), num_classes=2, k_hat=2)
        with pytest.raises(ValueError, match="k_hat"):
            build_graph(features, classes, num_classes=2, k_hat=0)
        for bad in (classes[None, :], classes.astype(np.float64), [0, None, None, None]):
            with pytest.raises(ValueError, match="1-D integer array"):
                build_graph(features, bad, num_classes=2, k_hat=2)


class TestBlockedGraphBuild:
    @pytest.mark.parametrize("n, k_hat", GRAPH_CASES)
    @pytest.mark.parametrize("relu", [False, True])
    def test_w_norm_matches_dense_oracle_bytes(self, n, k_hat, relu):
        features = tied_features(n, seed=n * 10 + k_hat, relu=relu)
        classes = np.full(n, -1)
        classes[0] = 0
        graph = build_graph(features, classes, num_classes=2, k_hat=k_hat)
        expected = dense_graph_oracle(features, k_hat)
        w = graph.w_norm
        assert w.flags.c_contiguous
        assert w.tobytes() == expected.tobytes()
        # symmetric_normalize trusts its caller for these; hold the build to them
        assert np.all(np.isfinite(w))
        assert np.all(w >= 0.0)
        assert w.tobytes() == np.ascontiguousarray(w.T).tobytes()
        assert not np.any(np.diagonal(w))

    @pytest.mark.parametrize("n", [2, 3, 50, 182, 604])
    def test_cosine_matches_full_product_bytes(self, n):
        features = tied_features(n, seed=n, relu=True)
        x = features
        unit = x / np.sqrt((x * x).sum(axis=1))[:, None]
        expected = linalg.matmul(unit, unit.T)
        np.fill_diagonal(expected, 1.0)
        expected = np.clip(expected, -1.0, 1.0)
        assert linalg.cosine_similarity_matrix(features).tobytes() == expected.tobytes()

    def test_crowded_ties_across_blocks(self):
        # 20 copies of one row spread over all 12 blocks of n = 604: each
        # copy sees 19 exact ties for its 3 slots and keeps the lowest indices
        features = tied_features(604, seed=3, relu=False)
        copies = np.arange(0, 604, 31)
        features[copies] = features[7]
        classes = np.full(604, -1)
        classes[0] = 0
        graph = build_graph(features, classes, num_classes=2, k_hat=3)
        assert graph.w_norm.tobytes() == dense_graph_oracle(features, 3).tobytes()

    def test_traced_peak_is_about_one_n_by_n_array(self):
        n = 1204
        features = np.random.default_rng(0).standard_normal((n, 8))
        classes = np.full(n, -1)
        classes[:10] = np.arange(10) % 2
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            graph = build_graph(features, classes, num_classes=2, k_hat=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert graph.w_norm.shape == (n, n)
        assert peak <= 1.25 * n * n * 8


class TestPropagate:
    def test_two_node_hand_solved_system(self):
        # Nodes: one seed of class 0 and one unlabeled node, one edge.
        # Normalised weight is 1, so the system is
        #   [1, -a; -a, 1] Z = [[1, 0]; [0, 0]],
        # giving z_unlabeled = (a/(1-a^2), 0); with a = 0.9 that is
        # 0.9/0.19 for class 0 and 0 for class 1.
        features = np.array([[1.0, 0.0], [1.0, 0.05]])
        classes = np.array([0, -1])
        graph = build_graph(features, classes, num_classes=2, k_hat=1)
        assert np.allclose(graph.w_norm, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
        result = propagate(graph, alpha=0.9)
        assert result.scores[1, 0] == pytest.approx(0.9 / 0.19, abs=1e-9)
        assert result.scores[1, 1] == pytest.approx(0.0, abs=1e-12)
        assert result.pseudo_labels[0] == 0
        assert result.confidence[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_neumann_oracle(self):
        # the dense elimination is a second oracle; both agree to 1e-12 from
        # weak to strong damping
        for alpha in (0.1, 0.5, 0.9, 0.99):
            # alpha^k * max|Z| < 1e-14 with max|Z| <= 1 / (1 - alpha)
            iters = math.ceil(math.log(1e-14 * (1.0 - alpha)) / math.log(alpha))
            for seed in range(5):
                graph = random_graph(seed, n=25, k_hat=4)
                scores = propagate(graph, alpha=alpha).scores
                iterative = propagate_iterative_oracle(graph, alpha=alpha, iters=iters)
                n = graph.w_norm.shape[0]
                dense = linalg.solve_linear(np.eye(n) - alpha * graph.w_norm, graph.seed_labels)
                assert float(np.abs(scores - iterative).max()) <= 1e-12
                assert float(np.abs(scores - dense).max()) <= 1e-12

    def test_repeat_calls_bitwise_equal(self):
        graph = random_graph(14, n=40, k_hat=4)
        first = propagate(graph, alpha=0.9)
        second = propagate(graph, alpha=0.9)
        assert np.array_equal(first.scores, second.scores)
        assert np.array_equal(first.confidence, second.confidence)

    def test_class_without_seed_gives_zero_column(self):
        # three classes, seeds only of classes 0 and 2
        features = np.random.default_rng(15).standard_normal((20, 3))
        classes = np.full(20, -1)
        classes[:4] = [0, 2, 0, 2]
        graph = build_graph(features, classes, num_classes=3, k_hat=4)
        with np.errstate(all="raise"):
            result = propagate(graph, alpha=0.9)
        assert np.array_equal(result.scores[:, 1], np.zeros(20))
        assert np.all(result.scores[:, [0, 2]].sum(axis=1) > 0.0)

    def test_budget_exhausted_raises(self, monkeypatch):
        # the bound at alpha = 0.9 is 74 iterations; leave a budget of 4
        monkeypatch.setattr(propagation, "CG_ITER_MARGIN", -70)
        graph = random_graph(16, n=40, k_hat=4)
        with pytest.raises(PropagationError, match="did not converge.*after 4 iterations"):
            propagate(graph, alpha=0.9)

    def test_seed_rows_dominated_by_own_class(self):
        graph = random_graph(7, n=20, num_classes=3, n_seeds=6)
        result = propagate(graph, alpha=0.5)
        seeded_classes = np.argmax(graph.seed_labels[:6], axis=1)
        recovered = np.argmax(result.scores[:6], axis=1)
        assert np.array_equal(recovered, seeded_classes)

    def test_scores_nonnegative(self):
        graph = random_graph(8)
        result = propagate(graph, alpha=0.9)
        assert np.all(result.scores >= -1e-12)

    def test_alpha_bounds(self):
        graph = random_graph(9)
        for alpha in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="alpha"):
                propagate(graph, alpha=alpha)

    def test_result_block_shapes(self):
        graph = random_graph(10, n=30, n_seeds=6)
        result = propagate(graph, alpha=0.9)
        assert result.scores.shape == (30, 3)
        assert result.pseudo_labels.shape == (24,)
        assert result.confidence.shape == (24,)
        assert np.all(result.confidence >= 0.0)
        assert np.all(result.confidence <= 1.0 + 1e-12)

    def test_disconnected_node_gets_zero_confidence(self):
        # a far-away isolated pair keeps zero edges to the seeded component
        features = np.array(
            [
                [1.0, 0.0],
                [0.99, 0.01],
                [0.98, 0.02],
                [-1.0, 0.0],
                [-0.99, -0.01],
            ]
        )
        classes = np.array([0, -1, -1, -1, -1])
        graph = build_graph(features, classes, num_classes=2, k_hat=1)
        result = propagate(graph, alpha=0.9)
        # nodes 3, 4 form their own component with no seed mass
        assert np.array_equal(result.scores[3:], np.zeros((2, 2)))
        assert result.confidence[2] == 0.0
        assert result.confidence[3] == 0.0
        assert result.pseudo_labels[2] == 0
        assert result.pseudo_labels[3] == 0


class TestIterativeOracle:
    def test_zero_iterations_returns_seeds(self):
        graph = random_graph(11)
        out = propagate_iterative_oracle(graph, alpha=0.9, iters=0)
        assert np.array_equal(out, graph.seed_labels)

    def test_parameter_errors(self):
        graph = random_graph(12)
        with pytest.raises(ValueError, match="alpha"):
            propagate_iterative_oracle(graph, alpha=1.0, iters=5)
        with pytest.raises(ValueError, match="iters"):
            propagate_iterative_oracle(graph, alpha=0.9, iters=-1)


class TestDumpGraphDebug:
    def test_files_written_and_parse(self, tmp_path):
        graph = random_graph(13, n=12, k_hat=3)
        result = propagate(graph, alpha=0.9)
        edges = tmp_path / "edges.tsv"
        scores = tmp_path / "scores.tsv"
        dump_graph_debug(graph, result, edges, scores)

        edge_lines = edges.read_text().strip().split("\n")
        assert edge_lines[0] == "i\tj\tweight"
        n_edges = int((np.triu(graph.w_norm, k=1) > 0).sum())
        assert len(edge_lines) == n_edges + 1
        i, j, w = edge_lines[1].split("\t")
        assert graph.w_norm[int(i), int(j)] == float(w)

        score_lines = scores.read_text().strip().split("\n")
        assert score_lines[0] == "class_0\tclass_1\tclass_2"
        assert len(score_lines) == 13
        first = np.array([float(v) for v in score_lines[1].split("\t")])
        assert np.allclose(first, result.scores[0], atol=0)
