"""Projections of a window onto a learned basis.

Three ways to explain a window x with an orthonormal basis U:

* ``simple_projection``: least squares over all rows, a_hat = U^T x. Cheap,
  but a corrupted coordinate leaks into every coefficient.
* ``robust_projection``: score each coordinate by its preliminary residual
  |x - U U^T x|, drop the n_s worst rows, and re-solve least squares on the
  survivors. Closed form, no iteration, and exact when the corruption budget
  covers the corrupted rows and the basis is incoherent enough. Because U is
  orthonormal, the survivors' normal matrix is I - B^T B for the dropped rows
  B, so the solve is an n_s x n_s downdate (Woodbury); a window whose dropped
  rows leave the survivors badly conditioned, which is rare, goes to a plain
  QR of the survivors (np.linalg.qr, then solve_triangular).
* ``l1_projection_oracle``: iteratively reweighted least squares for the l1
  objective min_a ||x - U a||_1. Slower; used as an independent reference.
"""

from __future__ import annotations

import math
import warnings
from functools import cached_property, lru_cache

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dgemv, dsyrk
from scipy.linalg.lapack import dposv

from .errors import (
    BadBudget,
    DidNotConverge,
    DimensionMismatch,
    NonFiniteValue,
    RankDeficient,
)

RANK_TOL = 1e-10
# Smallest det(I - B B^T) at which the downdate solve is trusted; below it
# the window goes to the QR solve (see _downdate_solve).
DOWNDATE_FLOOR = 1e-3
IRLS_SMOOTHING = 1e-8


class RobustProjectionResult:
    """Coefficients plus the evidence used to compute them.

    kept_rows is the ascending index set of rows that survived exclusion;
    residual is x - U a_hat over all rows; prelim_residual is the first-pass
    score |x - U U^T x| that decided which rows to keep. kept_rows and
    residual are computed on first read, from a copy of the window taken by
    the call, so a caller that reads only a_hat does not pay for them and a
    caller that reuses its window buffer does not change them.
    """

    def __init__(self, a_hat: np.ndarray, prelim_residual: np.ndarray,
                 basis: np.ndarray, window: np.ndarray, order: np.ndarray,
                 n_kept: int):
        self.a_hat = a_hat
        self.prelim_residual = prelim_residual
        self._basis = basis
        self._window = window
        self._order = order  # rows by ascending preliminary residual
        self._n_kept = n_kept

    @cached_property
    def kept_rows(self) -> np.ndarray:
        kept = self._order[: self._n_kept]
        kept.sort()
        return kept

    @cached_property
    def residual(self) -> np.ndarray:
        return self._window - self._basis @ self.a_hat


def _validate(U, x):
    U = np.asarray(U, dtype=float)
    x = np.asarray(x, dtype=float)
    if U.ndim != 2:
        raise DimensionMismatch("basis must be a matrix")
    if x.ndim != 1 or x.size != U.shape[0]:
        raise DimensionMismatch(
            f"window of length {x.size} does not match basis with {U.shape[0]} rows"
        )
    return U, x


def simple_projection(U: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project onto the basis using every coordinate: a_hat = U^T x."""
    U, x = _validate(U, x)
    a_hat = U.T @ x
    return a_hat, x - U @ a_hat


def robust_projection(U: np.ndarray, x: np.ndarray, n_s: int) -> RobustProjectionResult:
    """Exclude the n_s most suspect coordinates, then least-squares the rest.

    Rows are ranked by the preliminary residual |x - U U^T x|; ties resolve
    by ascending value then ascending index, so results are deterministic.
    With n_s = 0 this reduces exactly to simple_projection.
    """
    U, x = _validate(U, x)
    m, r = U.shape
    if n_s < 0 or n_s + r > m:
        raise BadBudget(f"n_s={n_s} with rank {r} and {m} rows")
    a0 = U.T @ x
    prelim = x - U @ a0
    np.abs(prelim, out=prelim)
    order = prelim.argsort(kind="stable")
    if n_s == 0:
        a_hat = a0  # full-row least squares on an orthonormal basis
    else:
        a_hat = _downdate_solve(U, x, order[m - n_s:])
        if a_hat is None:
            kept = order[: m - n_s]
            kept.sort()
            a_hat = _kept_row_solve(U, x, kept)
    return RobustProjectionResult(a_hat, prelim, U, x.copy(), order, m - n_s)


def _downdate_solve(U: np.ndarray, x: np.ndarray, excluded: np.ndarray) -> np.ndarray | None:
    """Least squares on the kept rows through the n_s excluded rows B.

    U is orthonormal, so the kept rows' normal matrix is I - B^T B, and
    Woodbury's identity gives a = g + B^T w, where g = U^T x0 and
    (I - B B^T) w = B g, solved by one LAPACK dposv. x0 is the window with
    the excluded entries zeroed, so a huge excluded value never enters a sum
    (U^T x - B^T x_B would cancel it away in rounding).

    Returns None, leaving the window to _kept_row_solve, unless
    det(I - B B^T) >= DOWNDATE_FLOOR and a is finite. The determinant is the
    squared product of the Cholesky diagonal, and it bounds the smallest
    eigenvalue from below, because every eigenvalue of I - B B^T lies in
    [0, 1]; so an accepted solve is well conditioned, and its kept rows have
    full rank.
    """
    x0 = x.copy()
    x0[excluded] = 0.0
    g = U.T @ x0
    # B^T is the F-ordered view of the C-ordered rows that the BLAS and
    # LAPACK wrappers read without a copy.
    b_t = U.take(excluded, axis=0).T
    s = dsyrk(-1.0, b_t, beta=1.0, c=_identity(excluded.size), trans=1, lower=1)
    chol, w, info = dposv(s, g @ b_t, lower=1, overwrite_a=1, overwrite_b=1)
    if info != 0 or not math.prod(chol.diagonal().tolist()) ** 2 >= DOWNDATE_FLOOR:
        return None
    a_hat = dgemv(1.0, b_t, w, beta=1.0, y=g, overwrite_y=1)
    # A sum of Python floats is finite only if every term is.
    return a_hat if math.isfinite(sum(a_hat.tolist())) else None


@lru_cache(maxsize=None)
def _identity(n: int) -> np.ndarray:
    """A read-only F-ordered n x n identity, the C that dsyrk starts from."""
    eye = np.eye(n, order="F")
    eye.setflags(write=False)
    return eye


def _kept_row_solve(U: np.ndarray, x: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Least squares on the kept rows: QR of U[kept], then R a = Q^T x[kept].

    The fallback of robust_projection for windows the downdate declines, and
    the only place that raises RankDeficient or NonFiniteValue for a window.
    A NaN on R's diagonal is not rank deficiency (numpy's min propagates it,
    and nan <= tol is false); it fails the finiteness test instead, which is
    the condition of solve_triangular's check_finite.
    """
    q, rmat = np.linalg.qr(U[kept])
    if np.abs(np.diag(rmat)).min() <= RANK_TOL:
        raise RankDeficient(
            f"kept rows span less than rank {U.shape[1]} (QR diagonal below {RANK_TOL})"
        )
    rhs = q.T @ x[kept]
    if not (np.isfinite(rmat).all() and np.isfinite(rhs).all()):
        raise NonFiniteValue(
            _blamed_row(U, x, kept), "non-finite number in the kept-row solve"
        )
    return solve_triangular(rmat, rhs, check_finite=False)


def _blamed_row(U: np.ndarray, x: np.ndarray, kept: np.ndarray) -> int:
    """Window row behind a non-finite solve: the first kept row holding a
    non-finite value or basis entry, else (overflow) the largest kept value."""
    bad = ~(np.isfinite(x[kept]) & np.isfinite(U[kept]).all(axis=1))
    return int(kept[np.argmax(bad)] if bad.any() else kept[np.argmax(np.abs(x[kept]))])


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
    U, x = _validate(U, x)
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

