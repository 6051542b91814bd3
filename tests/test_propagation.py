"""Tests for graph construction and label propagation.

Three independent oracles check the conjugate-gradient solver path: the
damped fixed-point iteration (Neumann series, converges geometrically),
the dense elimination ``linalg.solve_linear``, and a hand-solved two-node
system. Graph-construction invariants are exercised directly on
the returned weight matrix.
"""

import math

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
    propagate_iterative_oracle,
)


def random_graph(seed, n=30, num_classes=3, k_hat=5, n_labeled=6):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, 4))
    classes = np.full(n, -1)
    classes[:n_labeled] = rng.integers(0, num_classes, size=n_labeled)
    return build_graph(features, classes, num_classes, k_hat, n_labeled=n_labeled)


class TestGraphLayout:
    def test_counts(self):
        layout = GraphLayout(n_labeled=3, n_augmented=2, n_unlabeled=10)
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
        assert graph.layout.n_labeled == 2
        assert graph.layout.n_augmented == 0
        assert graph.layout.n_unlabeled == 4

    def test_augmented_block_accounting(self):
        features = np.random.default_rng(3).standard_normal((8, 3))
        classes = np.array([0, 1, 1, 0, -1, -1, -1, -1])
        graph = build_graph(features, classes, num_classes=2, k_hat=3, n_labeled=2)
        assert graph.layout.n_labeled == 2
        assert graph.layout.n_augmented == 2
        assert graph.layout.n_seeds == 4

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
        with pytest.raises(ValueError, match="k_hat"):
            build_graph(features, classes, num_classes=2, k_hat=0)


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
        graph = random_graph(7, n=20, num_classes=3, n_labeled=6)
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
        graph = random_graph(10, n=30, n_labeled=6)
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
