"""Float64 linear algebra kernels with deterministic semantics.

Every public function works on 2-D ``numpy`` arrays of ``float64`` (the
sparse solver takes its matrix as 1-D coordinate arrays) and is written so
that repeated runs on the same machine produce bit-identical results, with
no BLAS dispatch anywhere:

- ``matmul`` accumulates each output entry in the fixed order k = 0, 1, ...
  over the inner dimension, starting from +0.0. It has two paths that give
  the same bits: one ``np.add.reduce`` over a C-ordered product temporary
  for small shapes with more than one output row and column, and a Python
  loop of rank-one updates, run over blocks of output rows, for every other
  shape (see ``matmul``). Its result is always C-contiguous.
- ``cosine_similarity_matrix`` computes only the upper triangle, one block
  of rows at a time, and mirrors it: ``u_i . u_j`` and ``u_j . u_i`` sum
  the same products in the same order, so the mirror is exact. Its result
  is the one n x n buffer the propagation graph is then built in, in place
  (``symmetric_normalize`` normalises its argument in place).
- ``topk_sparsify_rows`` selects the k largest entries of each row with
  ``np.partition`` and breaks ties toward the lowest column index, so it
  keeps exactly the entries a stable sort would.
- The sparse solver is conjugate gradient with ``np.bincount`` products and
  elementwise-sum inner products. The dense elimination ``solve_linear`` is
  kept as the test oracle for that solver.
"""

from __future__ import annotations

import numpy as np

# Pivots below this magnitude are treated as exact zeros during elimination.
PIVOT_TOL = 1e-12

# Row norms below this are considered degenerate for cosine similarity.
NORM_TOL = 1e-12

# Largest m * k * n product temporary (float64 elements, 256 KB) that
# ``matmul`` sums with one ``np.add.reduce`` instead of its rank-one loop.
# The model's batch shapes (up to ~25k elements) run 1.3-5x faster reduced;
# from ~50k elements with m in the hundreds the loop is as fast or faster.
MATMUL_REDUCE_MAX_ELEMENTS = 32_768

# Largest output block (float64 elements, 256 KB) that ``matmul``'s rank-one
# loop updates at a time, so a large output stays in cache through all ``k``.
# The n x n graph kernels walk their matrix in row blocks of the same size.
MATMUL_BLOCK_ELEMENTS = 32_768


class SingularMatrixError(ValueError):
    """Raised when elimination meets a pivot below ``PIVOT_TOL``."""


class ConvergenceError(ArithmeticError):
    """Raised when conjugate gradient exhausts its budget or loses definiteness."""


def _block_rows(n_cols: int) -> int:
    """Rows per block of a ``n_cols``-wide matrix walked in row blocks."""
    return max(1, MATMUL_BLOCK_ELEMENTS // max(n_cols, 1))


def require_matrix(x, name: str = "matrix") -> np.ndarray:
    """Coerce ``x`` to a 2-D float64 array, rejecting non-finite entries."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def matmul(a, b) -> np.ndarray:
    """Matrix product with a fixed summation order over the inner dimension.

    Each output entry is ``((0.0 + a[i, 0] * b[0, j]) + a[i, 1] * b[1, j])
    + ...``, which reproduces the naive triple loop bitwise. Two paths compute
    it, chosen by shape alone:

    - When the output has more than one row and more than one column and
      ``m * k * n`` is at most ``MATMUL_REDUCE_MAX_ELEMENTS``, all products
      go into one C-ordered ``(m, k, n)`` temporary that ``np.add.reduce``
      sums over axis 1. The contiguous ``n`` axis is then NumPy's inner loop,
      so the ``k`` axis is added one slice at a time in order. When
      ``n < m`` the path reduces ``b.T`` by ``a.T`` instead, so the longer
      side is the inner loop, and returns a C-contiguous copy of the
      transpose: multiplication commutes and ``k`` keeps its order, so the
      bits are the same, and a transposed view would change the bits of a
      later ``sum(axis=0)`` over the result.
    - Every other shape runs ``k`` rank-one updates ``a[:, k] * b[k, :]``.
      The loop walks the output in blocks of whole rows holding at most
      ``MATMUL_BLOCK_ELEMENTS`` entries (one row per block once ``n``
      exceeds it) and runs all ``k`` updates on a block before the next,
      with every product written into one reused temporary. Blocking only
      regroups whole rows, so each entry still sums in k order; it keeps
      the graph-shaped products such as (604, 8, 604) in cache.

    The guard is needed for the bits, not only for speed. NumPy picks a
    reduction's loop order from the operands' strides: with a single output
    column it makes the reduced axis its inner loop and sums it pairwise,
    which rounds differently once ``k`` exceeds 8, and a single output row
    did the same for a Fortran-ordered ``a`` unless the temporary is forced
    to C order. The element cap bounds the temporary (256 KB) and keeps the
    large graph products, where the loop is faster, on the loop. Swapping in
    a BLAS call changes rounding and breaks reproducibility tests.
    """
    a = require_matrix(a, "a")
    b = require_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} by {b.shape}")
    m, inner = a.shape
    n = b.shape[1]
    if m > 1 and n > 1 and m * inner * n <= MATMUL_REDUCE_MAX_ELEMENTS:
        if n < m:
            return np.ascontiguousarray(_reduce_product(b.T, a.T).T)
        return _reduce_product(a, b)
    out = np.zeros((m, n))
    rows = _block_rows(n)
    tmp = np.empty((min(rows, m), n))
    for start in range(0, m, rows):
        block = out[start : start + rows]
        a_block = a[start : start + rows]
        product = tmp[: block.shape[0]]
        for k in range(inner):
            np.multiply(a_block[:, k : k + 1], b[k : k + 1, :], out=product)
            block += product
    return out


def _reduce_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` summed over k in order by one reduce over a C-ordered temporary."""
    return np.add.reduce(np.multiply(a[:, :, None], b[None], order="C"), axis=1)


def row_softmax(logits) -> np.ndarray:
    """Softmax each row with per-row max subtraction for stability."""
    z = require_matrix(logits, "logits")
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def cosine_similarity_matrix(x) -> np.ndarray:
    """Pairwise cosine similarity of the rows of ``x``.

    Returns a symmetric C-contiguous matrix with unit diagonal and entries
    in [-1, 1]. Rows with near-zero norm make the similarity undefined and
    raise. The matrix is filled one block of rows at a time: each block
    takes the products with its own and later rows, and the later part is
    mirrored into the later rows. Entry (j, i) then equals entry (i, j)
    bitwise, as a full product would give it, at half the ``matmul`` work.
    The result is the only n x n array the caller needs to allocate:
    ``propagation.build_graph`` transforms it in place.
    """
    x = require_matrix(x, "features")
    norms = np.sqrt((x * x).sum(axis=1))
    if np.any(norms <= NORM_TOL):
        bad = int(np.flatnonzero(norms <= NORM_TOL)[0])
        raise ValueError(f"row {bad} has near-zero norm; cosine similarity undefined")
    unit = x / norms[:, None]
    n = unit.shape[0]
    sim = np.empty((n, n))
    rows = _block_rows(n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        upper = matmul(unit[start:stop], unit[start:].T)
        np.fill_diagonal(upper, 1.0)
        np.clip(upper, -1.0, 1.0, out=upper)
        sim[start:stop, start:] = upper
        sim[stop:, start:stop] = upper[:, stop - start :].T
    return sim


def topk_sparsify_rows(w, k: int) -> np.ndarray:
    """Keep the ``k`` largest entries of each row, zeroing the rest.

    Ties are broken toward the lowest column index, so the kept set is
    exactly the first ``k`` columns of a stable sort of ``-w`` and the
    result is fully deterministic. Selection replaces the sort: the k-th
    largest value of each row comes from ``np.partition``, every entry
    above it is kept, and the remaining slots go to the lowest-index
    entries equal to it. Kept entries are copied bitwise (-0.0 included);
    the rest become +0.0.
    """
    w = require_matrix(w, "weights")
    n_cols = w.shape[1]
    if not 1 <= k < n_cols:
        raise ValueError(f"k must satisfy 1 <= k < {n_cols}, got {k}")
    # Copy out the one column so the partitioned n x n array is freed.
    kth = np.partition(w, n_cols - k, axis=1)[:, n_cols - k, None].copy()
    keep = w > kth
    ties = w == kth
    free = k - keep.sum(axis=1)
    crowded = ties.sum(axis=1) > free
    # Rows whose ties all fit keep every tie; the others keep the first
    # ``free`` ties in column order.
    keep |= ties & ~crowded[:, None]
    if crowded.any():
        crowded_ties = ties[crowded]
        first = np.cumsum(crowded_ties, axis=1) <= free[crowded, None]
        keep[crowded] |= crowded_ties & first
    return np.where(keep, w, 0.0)


def symmetric_normalize(w) -> np.ndarray:
    """Degree-normalize a symmetric nonnegative matrix in place: D^-1/2 W D^-1/2.

    A float64 array argument is overwritten with the result, which is also
    returned; other inputs are converted to a new array first. Rows with
    zero degree map to zero rows rather than dividing by zero. The checks
    (square, finite, nonnegative, symmetric) and the scaling walk the matrix
    in row blocks, so no n x n temporary is made. The degrees are sums over
    the full dense rows: summing only the nonzeros would round differently.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"matrix must be square, got {w.shape}")
    n = w.shape[0]
    rows = _block_rows(n)
    for start in range(0, n, rows):
        block = w[start : start + rows]
        if not np.all(np.isfinite(block)):
            raise ValueError("weights contains non-finite entries")
        if np.any(block < 0.0):
            raise ValueError("negative entry; weights must be nonnegative")
        if not np.array_equal(block[:, start:], w[start:, start : start + rows].T):
            raise ValueError("matrix must be symmetric")
    degree = w.sum(axis=1)
    positive = degree > 0.0
    inv_sqrt = np.zeros_like(degree)
    inv_sqrt[positive] = 1.0 / np.sqrt(degree[positive])
    for start in range(0, n, rows):
        # outer() keeps the scaling factor bitwise symmetric.
        w[start : start + rows] *= np.outer(inv_sqrt[start : start + rows], inv_sqrt)
    return w


def sparse_cg_solve(rows, cols, vals, b, rtol: float, max_iter: int) -> np.ndarray:
    """Solve ``a @ x = b`` by conjugate gradient, ``a`` given by its nonzeros.

    ``a`` is symmetric positive definite with ``a[rows[i], cols[i]] =
    vals[i]`` and zeros elsewhere; ``b`` may hold several right-hand sides
    as columns. Each column runs its own iteration with its own step sizes
    and stops once its residual norm is at most ``rtol`` times the norm of
    that column of ``b``, so an all-zero column is solved by zero at step 0.
    A product with ``a`` is one ``np.bincount`` over the nonzeros and inner
    products are elementwise sums, so no BLAS call is made and repeated runs
    are bit-identical.

    Raises ``ConvergenceError`` naming the column, the iteration count and
    the residual when a column is still above tolerance after ``max_iter``
    iterations, or when a step meets non-positive curvature (``a`` is not
    positive definite).
    """
    b = require_matrix(b, "b")
    n = b.shape[0]
    x = np.zeros_like(b)
    for c in range(b.shape[1]):
        r = b[:, c].copy()
        rr = float((r * r).sum())
        # Squared norms, so the test needs no sqrt; "not <=" keeps NaN running.
        limit = rtol * rtol * rr
        p = r.copy()
        xc = np.zeros(n)
        steps = 0
        while not rr <= limit:
            if steps == max_iter:
                raise ConvergenceError(
                    f"column {c}: residual {np.sqrt(rr):.3e} still above "
                    f"{np.sqrt(limit):.3e} after {steps} iterations"
                )
            q = np.bincount(rows, weights=vals * p[cols], minlength=n)
            curvature = float((p * q).sum())
            if not curvature > 0.0:
                raise ConvergenceError(
                    f"column {c}: curvature {curvature!r} at iteration {steps}; "
                    "matrix is not positive definite"
                )
            step = rr / curvature
            xc += step * p
            r -= step * q
            rr_next = float((r * r).sum())
            p = r + (rr_next / rr) * p
            rr = rr_next
            steps += 1
        x[:, c] = xc
    return x


def solve_linear(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by Gaussian elimination with partial pivoting.

    This is the dense O(n^3) test oracle for ``sparse_cg_solve``; it stays
    public because the benchmark reports it under its own per-layer names.
    ``b`` may hold multiple right-hand sides as columns. Raises
    ``SingularMatrixError`` when the best available pivot falls below
    ``PIVOT_TOL``.
    """
    a = require_matrix(a, "a").copy()
    b = require_matrix(b, "b").copy()
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError(f"coefficient matrix must be square, got {a.shape}")
    if b.shape[0] != n:
        raise ValueError(f"right-hand side has {b.shape[0]} rows, expected {n}")

    for k in range(n):
        pivot_row = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[pivot_row, k]) < PIVOT_TOL:
            raise SingularMatrixError(f"pivot below {PIVOT_TOL} at column {k}")
        if pivot_row != k:
            a[[k, pivot_row]] = a[[pivot_row, k]]
            b[[k, pivot_row]] = b[[pivot_row, k]]
        mult = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k + 1 :] -= mult[:, None] * a[k, k + 1 :]
        a[k + 1 :, k] = 0.0
        b[k + 1 :] -= mult[:, None] * b[k]

    x = np.zeros_like(b)
    for i in range(n - 1, -1, -1):
        tail = (a[i, i + 1 :, None] * x[i + 1 :]).sum(axis=0)
        x[i] = (b[i] - tail) / a[i, i]
    return x
