"""Tests for the deterministic linear-algebra kernels.

Oracles used here are independent of the implementation: an explicit
triple-loop product, a stable-sort top-k selection, numpy's LAPACK-backed
``np.linalg.solve``, exact fraction arithmetic for small frozen systems,
and the dense elimination ``solve_linear`` for the sparse
conjugate-gradient solver. Kernels promise bit-identical results, so their
oracle comparisons are on bytes (``tobytes``), which tells -0.0 from 0.0.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from meshadapt import linalg
from meshadapt.linalg import (
    MATMUL_BLOCK_ELEMENTS,
    MATMUL_REDUCE_MAX_ELEMENTS,
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
    """Naive reference product, summing over the inner index k outermost.

    Runs on Python floats (IEEE doubles, so the same roundings and signed
    zeros as float64) to keep large oracle shapes fast.
    """
    n, inner = a.shape
    inner2, m = b.shape
    assert inner == inner2
    a, b = a.tolist(), b.tolist()
    out = [[0.0] * m for _ in range(n)]
    for k in range(inner):
        b_row = b[k]
        for i in range(n):
            a_ik = a[i][k]
            out_row = out[i]
            for j in range(m):
                out_row[j] += a_ik * b_row[j]
    return np.array(out).reshape(n, m)


def stable_sort_topk(w, k):
    """Reference top-k: keep the first k columns of a stable sort of -w."""
    order = np.argsort(-w, axis=1, kind="stable")
    keep = order[:, :k]
    out = np.zeros_like(w)
    row_index = np.arange(w.shape[0])[:, None]
    out[row_index, keep] = w[row_index, keep]
    return out


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


LAYOUTS = ("C", "F", "strided")


def with_layout(x, layout):
    """``x``'s values in C order, in Fortran order (a ``.T`` view, as the
    backward pass passes its factors) or as a strided column slice."""
    if layout == "F":
        return np.ascontiguousarray(x.T).T
    if layout == "strided":
        wide = np.zeros((x.shape[0], 2 * x.shape[1]))
        wide[:, ::2] = x
        return wide[:, ::2]
    return np.ascontiguousarray(x)


def random_factor(rng, shape, zero_fraction):
    x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
    zeros = rng.uniform(size=shape) < zero_fraction
    x[zeros] = np.where(rng.uniform(size=shape) < 0.5, -0.0, 0.0)[zeros]
    return x


@st.composite
def matrix_pairs(draw):
    """Factor pairs reaching k > 8, m = 1, n = 1, every layout, and shapes on
    both sides of ``MATMUL_REDUCE_MAX_ELEMENTS`` (48 * 64 * 48 is above it)."""
    m = draw(st.one_of(st.just(1), st.integers(2, 48)))
    k = draw(st.one_of(st.integers(1, 8), st.integers(9, 64)))
    n = draw(st.one_of(st.just(1), st.integers(2, 48)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zero_fraction = draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    a = with_layout(random_factor(rng, (m, k), zero_fraction), draw(st.sampled_from(LAYOUTS)))
    b = with_layout(random_factor(rng, (k, n), zero_fraction), draw(st.sampled_from(LAYOUTS)))
    return a, b


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
            assert_same_bits(matmul(a, b), triple_loop_matmul(a, b))

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

    @pytest.mark.parametrize(
        "shape",
        [
            # a single output column or row, where a NumPy reduce over k
            # would sum pairwise once k > 8
            (64, 10, 1),
            (128, 300, 1),
            (5, 200, 1),
            (1, 10, 32),
            (1, 200, 5),
            # model shapes: backward weight gradients (k = batch rows), then
            # forward passes on either side of the cap
            (10, 64, 32),
            (8, 64, 4),
            (64, 32, 10),
            (196, 32, 8),
            # exactly at the element cap, one past it, and well past it
            (2, MATMUL_REDUCE_MAX_ELEMENTS // 4, 2),
            (2, MATMUL_REDUCE_MAX_ELEMENTS // 4 + 1, 2),
            (41, 41, 41),
            (300, 10, 32),
        ],
    )
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_matches_triple_loop_at_guard_shapes(self, shape, layout):
        m, k, n = shape
        rng = np.random.default_rng(m * 10_000 + k * 100 + n)
        a = with_layout(random_factor(rng, (m, k), 0.2), layout)
        b = with_layout(random_factor(rng, (k, n), 0.2), layout)
        assert_same_bits(matmul(a, b), triple_loop_matmul(a, b))

    @pytest.mark.parametrize(
        "shape",
        [
            # the loop updates MATMUL_BLOCK_ELEMENTS // n output rows at a
            # time: full blocks plus a short one, an exact multiple, one row
            # past it, a single short block, and the graph shapes' ratio
            (250, 4, 300),
            (256, 3, 256),
            (257, 3, 256),
            (127, 5, 256),
            (3, 4, MATMUL_BLOCK_ELEMENTS // 2),
            # n above the block size: one row per block
            (3, 3, MATMUL_BLOCK_ELEMENTS + 1),
            # a single output column: blocks of MATMUL_BLOCK_ELEMENTS rows
            (MATMUL_BLOCK_ELEMENTS + 5, 3, 1),
        ],
    )
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_matches_triple_loop_across_output_blocks(self, shape, layout):
        m, k, n = shape
        assert m * k * n > MATMUL_REDUCE_MAX_ELEMENTS  # the looped path
        rng = np.random.default_rng(m * 10_000 + k * 100 + n)
        a = with_layout(random_factor(rng, (m, k), 0.2), layout)
        b = with_layout(random_factor(rng, (k, n), 0.2), layout)
        assert_same_bits(matmul(a, b), triple_loop_matmul(a, b))

    @pytest.mark.parametrize(
        "shape",
        [(3, 12, 4), (3, 12, 1), (1, 12, 4), (2, 1, 2), (257, 3, 256), (2, 2, 40_000)],
    )
    def test_signed_zero_products_sum_to_positive_zero(self, shape):
        # every product is -0.0; the triple loop starts each entry at +0.0,
        # and +0.0 + -0.0 = +0.0, so neither path may return -0.0
        m, k, n = shape
        a = np.full((m, k), -0.0)
        b = np.ones((k, n))
        expected = triple_loop_matmul(a, b)
        assert not np.any(np.signbit(expected))
        assert_same_bits(matmul(a, b), expected)
        assert_same_bits(matmul(b.T, a.T), triple_loop_matmul(b.T, a.T))

    @pytest.mark.parametrize("shape", [(64, 8, 4), (64, 32, 8), (8, 64, 4)])
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("zero_fraction", [0.0, 0.5, 1.0])
    def test_reduce_with_fewer_columns_than_rows(self, shape, layout, zero_fraction):
        # the reduce runs on b.T by a.T so the longer side is its inner loop,
        # and must hand back a C-contiguous array: a transposed view would
        # sum its columns pairwise in a later sum(axis=0)
        m, k, n = shape
        assert 1 < n < m and m * k * n <= MATMUL_REDUCE_MAX_ELEMENTS
        rng = np.random.default_rng(m * 10_000 + k * 100 + n)
        a = with_layout(random_factor(rng, (m, k), zero_fraction), layout)
        b = with_layout(random_factor(rng, (k, n), zero_fraction), layout)
        out = matmul(a, b)
        expected = triple_loop_matmul(a, b)
        assert out.flags.c_contiguous
        assert_same_bits(out, expected)
        assert_same_bits(out.sum(axis=0), expected.sum(axis=0))

    @given(matrix_pairs())
    def test_property_matches_triple_loop(self, pair):
        a, b = pair
        out = matmul(a, b)
        assert out.flags.c_contiguous
        assert_same_bits(out, triple_loop_matmul(a, b))


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

    def test_crowded_ties_keep_lowest_indices(self):
        # row 0: four ties for two slots; row 1: one clear winner, then four
        # ties for the last slot; row 2: ties exactly fill the free slots
        w = np.array(
            [
                [1.0, 1.0, 1.0, 1.0, 0.0],
                [1.0, 1.0, 1.0, 1.0, 2.0],
                [1.0, 0.0, 0.0, 0.0, 1.0],
            ]
        )
        expected = np.array(
            [
                [1.0, 1.0, 0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, 0.0, 2.0],
                [1.0, 0.0, 0.0, 0.0, 1.0],
            ]
        )
        assert_same_bits(topk_sparsify_rows(w, 2), expected)
        assert_same_bits(topk_sparsify_rows(w, 3), stable_sort_topk(w, 3))

    def test_signed_zeros_tie_and_keep_their_sign(self):
        # -0.0 == 0.0, so the lowest index wins and its -0.0 is kept as is
        w = np.array([[-0.0, -1.0, 0.0], [0.0, -1.0, -0.0]])
        out = topk_sparsify_rows(w, 1)
        assert_same_bits(out, np.array([[-0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        assert_same_bits(out, stable_sort_topk(w, 1))

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(2, 12)),
            elements=st.one_of(
                st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0]),
                st.floats(min_value=-10, max_value=10, allow_nan=False),
            ),
        ),
        st.integers(1, 11),
    )
    def test_property_matches_stable_sort_bitwise(self, w, k):
        k = min(k, w.shape[1] - 1)
        assert_same_bits(topk_sparsify_rows(w, k), stable_sort_topk(w, k))
        assert_same_bits(topk_sparsify_rows(np.asfortranarray(w), k), stable_sort_topk(w, k))


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
        with pytest.raises(ValueError, match="square"):
            symmetric_normalize(np.zeros(4))

    def test_normalizes_in_place(self):
        rng = np.random.default_rng(43)
        a = rng.uniform(0, 1, size=(5, 5))
        w = (a + a.T) / 2.0
        degree = w.sum(axis=1)
        expected = w * np.outer(1.0 / np.sqrt(degree), 1.0 / np.sqrt(degree))
        out = symmetric_normalize(w)
        assert out is w
        assert_same_bits(out, expected)

    @pytest.mark.parametrize(
        "fault, message",
        [("asymmetric", "symmetric"), ("negative", "nonnegative"), ("nan", "non-finite")],
    )
    def test_rejects_faults_in_later_row_blocks(self, fault, message):
        # n = 300 is walked in blocks of 109 rows; the fault sits in the last
        n = 300
        w = np.ones((n, n))
        if fault == "asymmetric":
            w[250, 240] = 2.0
        else:
            w[250, 240] = w[240, 250] = -1.0 if fault == "negative" else np.nan
        with pytest.raises(ValueError, match=message):
            symmetric_normalize(w)

    def test_allocates_no_n_by_n_temporary(self):
        n = 1204
        a = np.random.default_rng(47).uniform(0, 1, size=(n, n))
        w = (a + a.T) / 2.0
        del a
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            symmetric_normalize(w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # smaller than even an n x n boolean mask
        assert peak < n * n


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
