"""Tests for the deterministic linear-algebra kernels.

Oracles used here are independent of the implementation: an explicit
triple-loop product, numpy's LAPACK-backed ``np.linalg.solve``, exact
fraction arithmetic for small frozen systems, and the dense elimination
``solve_linear`` for the sparse conjugate-gradient solver.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from meshadapt import linalg
from meshadapt.linalg import (
    ConvergenceError,
    SingularMatrixError,
    cosine_similarity_matrix,
    matmul,
    require_matrix,
    row_softmax,
    solve_linear,
    sparse_cg_solve,
    symmetric_normalize,
    topk_sparsify_rows,
)


def triple_loop_matmul(a, b):
    """Naive reference product, summing over the inner index k outermost."""
    n, inner = a.shape
    inner2, m = b.shape
    assert inner == inner2
    out = np.zeros((n, m))
    for k in range(inner):
        for i in range(n):
            for j in range(m):
                out[i, j] += a[i, k] * b[k, j]
    return out


small_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def matrix_strategy(max_side=5):
    return st.tuples(
        st.integers(1, max_side), st.integers(1, max_side), st.integers(1, max_side)
    ).flatmap(
        lambda dims: st.tuples(
            arrays(np.float64, (dims[0], dims[1]), elements=small_floats),
            arrays(np.float64, (dims[1], dims[2]), elements=small_floats),
        )
    )


class TestRequireMatrix:
    def test_accepts_lists(self):
        out = require_matrix([[1, 2], [3, 4]])
        assert out.dtype == np.float64
        assert out.shape == (2, 2)

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-D"):
            require_matrix(np.zeros(3))
        with pytest.raises(ValueError, match="2-D"):
            require_matrix(np.zeros((2, 2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            require_matrix(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError, match="non-finite"):
            require_matrix(np.array([[np.inf], [0.0]]))


class TestMatmul:
    def test_matches_triple_loop_bitwise(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            a = rng.standard_normal((4, 6))
            b = rng.standard_normal((6, 3))
            assert np.array_equal(matmul(a, b), triple_loop_matmul(a, b))

    def test_matches_numpy_dot_closely(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((8, 5))
        b = rng.standard_normal((5, 7))
        assert np.allclose(matmul(a, b), a @ b, atol=1e-12)

    def test_identity(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        assert np.array_equal(matmul(a, np.eye(4)), a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            matmul(np.zeros((2, 3)), np.zeros((2, 3)))

    @given(matrix_strategy())
    def test_property_matches_triple_loop(self, pair):
        a, b = pair
        assert np.array_equal(matmul(a, b), triple_loop_matmul(a, b))


class TestRowSoftmax:
    def test_uniform_rows(self):
        # exp(0) = 1 exactly, so a constant row gives exactly 1/K for K = 4.
        out = row_softmax(np.zeros((3, 4)))
        assert np.array_equal(out, np.full((3, 4), 0.25))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(5)
        out = row_softmax(rng.standard_normal((6, 9)) * 30)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((4, 5))
        assert np.allclose(row_softmax(z), row_softmax(z + 123.0), atol=1e-12)

    def test_extreme_logits_stay_finite(self):
        z = np.array([[1000.0, -1000.0, 0.0]])
        out = row_softmax(z)
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 5)),
            elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
        )
    )
    def test_property_simplex(self, z):
        out = row_softmax(z)
        assert np.all(out > 0)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)


class TestCosineSimilarity:
    def test_known_angles(self):
        x = np.array([[1.0, 0.0], [0.0, 2.0], [-3.0, 0.0], [1.0, 1.0]])
        sim = cosine_similarity_matrix(x)
        assert sim[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert sim[0, 2] == pytest.approx(-1.0, abs=1e-12)
        assert sim[0, 3] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_unit_diagonal_and_symmetry(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((7, 4))
        sim = cosine_similarity_matrix(x)
        assert np.array_equal(sim, sim.T)
        assert np.array_equal(np.diag(sim), np.ones(7))
        assert np.all(sim >= -1.0) and np.all(sim <= 1.0)

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="near-zero norm"):
            cosine_similarity_matrix(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_scale_invariance(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((5, 3))
        scales = rng.uniform(0.5, 4.0, size=(5, 1))
        assert np.allclose(
            cosine_similarity_matrix(x), cosine_similarity_matrix(x * scales), atol=1e-12
        )


class TestTopkSparsify:
    def test_keeps_largest(self):
        w = np.array([[0.5, 3.0, 1.0, 2.0]])
        out = topk_sparsify_rows(w, 2)
        assert np.array_equal(out, [[0.0, 3.0, 0.0, 2.0]])

    def test_tie_breaks_toward_lowest_index(self):
        w = np.array([[1.0, 2.0, 2.0, 0.0]])
        out = topk_sparsify_rows(w, 1)
        assert np.array_equal(out, [[0.0, 2.0, 0.0, 0.0]])

    def test_kept_values_bitwise_preserved(self):
        rng = np.random.default_rng(19)
        w = rng.uniform(0, 1, size=(6, 8))
        out = topk_sparsify_rows(w, 3)
        mask = out != 0.0
        assert np.array_equal(out[mask], w[mask])
        assert np.all((out != 0).sum(axis=1) == 3)

    def test_k_bounds(self):
        w = np.zeros((2, 4))
        with pytest.raises(ValueError, match="k must satisfy"):
            topk_sparsify_rows(w, 0)
        with pytest.raises(ValueError, match="k must satisfy"):
            topk_sparsify_rows(w, 4)

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(2, 6)),
            elements=st.floats(min_value=0, max_value=10, allow_nan=False),
        ),
        st.integers(1, 5),
    )
    def test_property_row_counts(self, w, k):
        if k >= w.shape[1]:
            k = w.shape[1] - 1
        out = topk_sparsify_rows(w, k)
        # at most k entries survive (exact zeros in w may make it fewer)
        assert np.all((out != 0).sum(axis=1) <= k)
        assert np.all(out >= 0)


class TestSymmetricNormalize:
    def test_two_node_graph(self):
        w = np.array([[0.0, 2.0], [2.0, 0.0]])
        out = symmetric_normalize(w)
        # degrees are both 2, so each edge becomes 2 / sqrt(2 * 2) = 1.
        assert np.allclose(out, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)

    def test_result_symmetric_bitwise(self):
        rng = np.random.default_rng(23)
        a = rng.uniform(0, 1, size=(6, 6))
        w = (a + a.T) / 2.0
        out = symmetric_normalize(w)
        assert np.array_equal(out, out.T)

    def test_zero_degree_row_stays_zero(self):
        w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        out = symmetric_normalize(w)
        assert np.array_equal(out[2], np.zeros(3))
        assert np.array_equal(out[:, 2], np.zeros(3))

    def test_spectral_radius_at_most_one(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            a = rng.uniform(0, 1, size=(8, 8))
            w = (a + a.T) / 2.0
            np.fill_diagonal(w, 0.0)
            out = symmetric_normalize(w)
            eigs = np.linalg.eigvalsh(out)
            assert np.max(np.abs(eigs)) <= 1.0 + 1e-12

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            symmetric_normalize(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            symmetric_normalize(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            symmetric_normalize(np.zeros((2, 3)))


class TestSolveLinear:
    def test_frozen_two_by_two(self):
        # Exact solution of [[1, -0.9], [-0.9, 1]] x = [1, 0]:
        # x = (100/19, 90/19), computed by hand from the 2x2 inverse.
        a = np.array([[1.0, -0.9], [-0.9, 1.0]])
        b = np.array([[1.0], [0.0]])
        x = solve_linear(a, b)
        assert x[0, 0] == pytest.approx(100.0 / 19.0, abs=1e-12)
        assert x[1, 0] == pytest.approx(90.0 / 19.0, abs=1e-12)

    def test_matches_lapack_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            a = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
            b = rng.standard_normal((6, 2))
            x = solve_linear(a, b)
            assert np.allclose(x, np.linalg.solve(a, b), atol=1e-9)

    def test_residual_small(self):
        rng = np.random.default_rng(37)
        a = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
        b = rng.standard_normal((5, 3))
        x = solve_linear(a, b)
        assert np.allclose(a @ x, b, atol=1e-10)

    def test_permutation_needs_pivoting(self):
        # leading zero pivot forces a row swap
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([[2.0], [3.0]])
        x = solve_linear(a, b)
        assert np.allclose(x, [[3.0], [2.0]], atol=1e-15)

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            solve_linear(a, np.array([[1.0], [1.0]]))

    def test_shape_errors(self):
        with pytest.raises(ValueError, match="square"):
            solve_linear(np.zeros((2, 3)), np.zeros((2, 1)))
        with pytest.raises(ValueError, match="rows"):
            solve_linear(np.eye(3), np.zeros((2, 1)))

    def test_inputs_not_mutated(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([[2.0], [3.0]])
        a0, b0 = a.copy(), b.copy()
        solve_linear(a, b)
        assert np.array_equal(a, a0)
        assert np.array_equal(b, b0)

    def test_propagation_style_system(self):
        # the shape of system the label-propagation solver produces:
        # (I - alpha * W_norm) Z = Y with spectral radius below one
        rng = np.random.default_rng(41)
        raw = rng.uniform(0, 1, size=(10, 10))
        w = (raw + raw.T) / 2.0
        np.fill_diagonal(w, 0.0)
        w_norm = symmetric_normalize(w)
        y = np.zeros((10, 3))
        y[:3, :] = np.eye(3)
        a = np.eye(10) - 0.9 * w_norm
        z = solve_linear(a, y)
        assert np.allclose(z, np.linalg.solve(a, y), atol=1e-10)


def damped_system(seed, alpha, n=30, density=0.2):
    """A propagation-shaped ``I - alpha * W_norm`` on a random sparse graph."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0, 1, size=(n, n)) * (rng.uniform(size=(n, n)) < density)
    w = np.triu(raw, k=1)
    w_norm = symmetric_normalize(w + w.T)
    return np.eye(n) - alpha * w_norm


def solve_dense_as_sparse(a, b, rtol=1e-14, max_iter=1000):
    rows, cols = np.nonzero(a)
    return sparse_cg_solve(rows, cols, a[rows, cols], b, rtol, max_iter)


class TestSparseCgSolve:
    @pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9, 0.99])
    def test_matches_dense_oracle(self, alpha):
        for seed in range(3):
            a = damped_system(seed, alpha)
            b = np.random.default_rng(100 + seed).uniform(0, 1, size=(30, 3))
            x = solve_dense_as_sparse(a, b)
            assert float(np.abs(x - solve_linear(a, b)).max()) <= 1e-12

    def test_zero_column_solved_at_step_zero(self):
        a = damped_system(0, 0.9)
        b = np.zeros((30, 2))
        b[0, 0] = 1.0
        rows, cols = np.nonzero(a)
        with np.errstate(all="raise"):
            x = sparse_cg_solve(rows, cols, a[rows, cols], b, 1e-14, 1000)
            assert np.array_equal(x[:, 1], np.zeros(30))
            # with no iterations allowed only the zero column converges
            with pytest.raises(ConvergenceError, match="column 0"):
                sparse_cg_solve(rows, cols, a[rows, cols], b, 1e-14, 0)
            zero = sparse_cg_solve(rows, cols, a[rows, cols], b[:, 1:], 1e-14, 0)
        assert np.array_equal(zero, np.zeros((30, 1)))

    def test_budget_exhausted_names_iterations_and_residual(self):
        a = damped_system(1, 0.9)
        b = np.ones((30, 1))
        with pytest.raises(ConvergenceError, match=r"residual \S+ still above \S+ after 3 iterations"):
            solve_dense_as_sparse(a, b, max_iter=3)

    def test_indefinite_matrix_rejected(self):
        a = -np.eye(4)
        with pytest.raises(ConvergenceError, match="not positive definite"):
            solve_dense_as_sparse(a, np.ones((4, 1)))

    def test_bitwise_repeatable_and_inputs_not_mutated(self):
        a = damped_system(2, 0.9)
        b = np.random.default_rng(3).uniform(size=(30, 4))
        b0 = b.copy()
        first = solve_dense_as_sparse(a, b)
        assert np.array_equal(first, solve_dense_as_sparse(a, b))
        assert np.array_equal(b, b0)

    def test_frozen_two_by_two(self):
        # same hand-solved system as the dense solver: x = (100/19, 90/19)
        a = np.array([[1.0, -0.9], [-0.9, 1.0]])
        x = solve_dense_as_sparse(a, np.array([[1.0], [0.0]]))
        assert x[0, 0] == pytest.approx(100.0 / 19.0, abs=1e-12)
        assert x[1, 0] == pytest.approx(90.0 / 19.0, abs=1e-12)
