"""Reference code that only the tests use: the plain and an independent l1
projection to check the closed-form robust projection against, the kept-row
QR solve through scipy.linalg, the robust projection's core written with @,
and the inverse of the trajectory embedding."""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dgemv, dsyrk
from scipy.linalg.lapack import dposv

from rpe import projection

IRLS_SMOOTHING = 1e-8


class DidNotConverge(UserWarning):
    """Iterative solver hit its iteration cap.

    Warning-level, not fatal: the last iterate is still returned and is
    attached here as ``last_iterate``.
    """

    def __init__(self, message: str, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


def simple_projection(U: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least squares on every row of an orthonormal basis: a_hat = U^T x, and
    the residual x - U a_hat."""
    a_hat = U.T @ x
    return a_hat, x - U @ a_hat


def kept_row_solve_reference(U: np.ndarray, x: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Least squares on the kept rows through scipy.linalg's public
    solve_triangular: QR of U[kept], then R a = Q^T x[kept]."""
    q, r = np.linalg.qr(U[kept])
    return solve_triangular(r, q.T @ x[kept], check_finite=False)


def robust_coefficients_reference(U: np.ndarray, x: np.ndarray, n_s: int) -> np.ndarray:
    """The robust projection's a_hat by rpe.projection's algorithm, written
    with matmul and index assignment: rank the rows by |x - U U^T x|, then
    the Woodbury downdate without the n_s worst, else (below the current
    projection.DOWNDATE_FLOOR, or not finite) the QR of the kept rows."""
    a0 = U.T @ x
    if n_s == 0:
        return a0
    m = U.shape[0]
    order = np.abs(x - U @ a0).argsort(kind="stable")
    excluded = order[m - n_s:]
    x0 = x.copy()
    x0[excluded] = 0.0
    g = U.T @ x0
    b_t = U.take(excluded, axis=0).T
    s = dsyrk(-1.0, b_t, beta=1.0, c=np.eye(n_s, order="F"), trans=1, lower=1)
    chol, w, info = dposv(s, g @ b_t, lower=1)
    if info == 0 and math.prod(chol.diagonal().tolist()) ** 2 >= projection.DOWNDATE_FLOOR:
        a_hat = dgemv(1.0, b_t, w, beta=1.0, y=g)
        if np.isfinite(a_hat).all():
            return a_hat
    return kept_row_solve_reference(U, x, np.sort(order[: m - n_s]))


def l1_projection_oracle(
    U: np.ndarray,
    x: np.ndarray,
    max_iter: int = 100,
    tol: float = 1e-9,
) -> np.ndarray:
    """Minimise ||x - U a||_1 by iteratively reweighted least squares.

    Weights are 1 / max(|residual_i|, 1e-8). Stops when the coefficient
    change drops below tol; hitting max_iter emits a DidNotConverge warning
    carrying the last iterate, which is still returned.
    """
    U = np.asarray(U, dtype=float)
    x = np.asarray(x, dtype=float)
    a = U.T @ x
    for _ in range(max_iter):
        res = x - U @ a
        w = 1.0 / np.maximum(np.abs(res), IRLS_SMOOTHING)
        sw = np.sqrt(w)
        a_new, *_ = np.linalg.lstsq(U * sw[:, None], x * sw, rcond=None)
        delta = np.max(np.abs(a_new - a))
        a = a_new
        if delta < tol:
            return a
    warnings.warn(
        DidNotConverge(
            f"IRLS did not reach tol={tol} within {max_iter} iterations",
            last_iterate=a,
        )
    )
    return a


def trajectory_to_series(matrix: np.ndarray) -> np.ndarray:
    """Invert build_trajectory: first row, then the tail of the last column."""
    return np.concatenate([matrix[0, :], matrix[1:, -1]])
