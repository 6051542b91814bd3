"""Float64 linear algebra kernels with deterministic semantics.

Every public function works on 2-D ``numpy`` arrays of ``float64`` (the
sparse solver takes its matrix as 1-D coordinate arrays) and is written so
that repeated runs on the same machine produce bit-identical results:
products accumulate in a fixed order over the inner dimension (no BLAS
dispatch), sorting is stable, and the sparse solver is conjugate gradient
with ``np.bincount`` products and elementwise-sum inner products. The dense
elimination ``solve_linear`` is kept as the test oracle for that solver.
"""

from __future__ import annotations

import numpy as np

# Pivots below this magnitude are treated as exact zeros during elimination.
PIVOT_TOL = 1e-12

# Row norms below this are considered degenerate for cosine similarity.
NORM_TOL = 1e-12


class SingularMatrixError(ValueError):
    """Raised when elimination meets a pivot below ``PIVOT_TOL``."""


class ConvergenceError(ArithmeticError):
    """Raised when conjugate gradient exhausts its budget or loses definiteness."""


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

    The accumulation runs k = 0..inner-1 adding ``a[:, k] * b[k, :]`` rank-one
    updates, which reproduces the naive triple loop bitwise. Keep it this way;
    swapping in a BLAS call changes rounding and breaks reproducibility tests.
    """
    a = require_matrix(a, "a")
    b = require_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.shape} by {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]
    return out


def row_softmax(logits) -> np.ndarray:
    """Softmax each row with per-row max subtraction for stability."""
    z = require_matrix(logits, "logits")
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def cosine_similarity_matrix(x) -> np.ndarray:
    """Pairwise cosine similarity of the rows of ``x``.

    Returns a symmetric matrix with unit diagonal and entries in [-1, 1].
    Rows with near-zero norm make the similarity undefined and raise.
    """
    x = require_matrix(x, "features")
    norms = np.sqrt((x * x).sum(axis=1))
    if np.any(norms <= NORM_TOL):
        bad = int(np.flatnonzero(norms <= NORM_TOL)[0])
        raise ValueError(f"row {bad} has near-zero norm; cosine similarity undefined")
    unit = x / norms[:, None]
    sim = matmul(unit, unit.T)
    np.fill_diagonal(sim, 1.0)
    return np.clip(sim, -1.0, 1.0)


def topk_sparsify_rows(w, k: int) -> np.ndarray:
    """Keep the ``k`` largest entries of each row, zeroing the rest.

    Ties are broken toward the lowest column index (stable sort on the
    negated values), so the result is fully deterministic.
    """
    w = require_matrix(w, "weights")
    n_rows, n_cols = w.shape
    if not 1 <= k < n_cols:
        raise ValueError(f"k must satisfy 1 <= k < {n_cols}, got {k}")
    order = np.argsort(-w, axis=1, kind="stable")
    keep = order[:, :k]
    out = np.zeros_like(w)
    row_index = np.arange(n_rows)[:, None]
    out[row_index, keep] = w[row_index, keep]
    return out


def symmetric_normalize(w) -> np.ndarray:
    """Degree-normalize a symmetric nonnegative matrix: D^-1/2 W D^-1/2.

    Rows with zero degree map to zero rows rather than dividing by zero.
    """
    w = require_matrix(w, "weights")
    if w.shape[0] != w.shape[1]:
        raise ValueError(f"matrix must be square, got {w.shape}")
    if np.any(w < 0.0):
        raise ValueError("negative entry; weights must be nonnegative")
    if not np.array_equal(w, w.T):
        raise ValueError("matrix must be symmetric")
    degree = w.sum(axis=1)
    positive = degree > 0.0
    inv_sqrt = np.zeros_like(degree)
    inv_sqrt[positive] = 1.0 / np.sqrt(degree[positive])
    # outer() keeps the scaling factor bitwise symmetric.
    return w * np.outer(inv_sqrt, inv_sqrt)


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
