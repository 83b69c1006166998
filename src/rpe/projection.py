"""Robust projection of a window onto a learned basis.

``robust_projection`` explains a window x with an orthonormal basis U: score
each coordinate by its preliminary residual |x - U U^T x|, drop the n_s worst
rows, and re-solve least squares on the survivors. Closed form, no iteration,
and exact when the corruption budget covers the corrupted rows and the basis
is incoherent enough. With n_s = 0 every row is kept, which is the plain
projection U^T x. Because U is orthonormal, the survivors' normal matrix is
I - B^T B for the dropped rows B, so the solve is an n_s x n_s downdate
(Woodbury); a window whose dropped rows leave the survivors badly
conditioned, which is rare, goes to a plain QR of the survivors
(np.linalg.qr, then solve_triangular).

The solve has one implementation: rank the rows once, then
``_exclude_and_solve``. ``robust_projection`` is the public entry point: it
checks the basis, the window and the budget, and returns the coefficients
with the evidence behind them. ``robust_coefficients`` is the streaming
detector's core: it runs the same ranking and solve on a window that is
already checked, and returns only the coefficients.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dgemv, dsyrk
from scipy.linalg.lapack import dposv

from .errors import BadBudget, DimensionMismatch, NonFiniteValue, RankDeficient

RANK_TOL = 1e-10
# Smallest det(I - B B^T) at which the downdate solve is trusted; below it
# the window goes to the QR solve (see _downdate_solve).
DOWNDATE_FLOOR = 1e-3


class RobustProjectionResult(NamedTuple):
    """Coefficients plus the evidence used to compute them.

    kept_rows is the ascending index set of rows that survived exclusion;
    residual is x - U a_hat over all rows; prelim_residual is the first-pass
    score |x - U U^T x| that decided which rows to keep.
    """

    a_hat: np.ndarray
    kept_rows: np.ndarray
    residual: np.ndarray
    prelim_residual: np.ndarray


def robust_projection(U: np.ndarray, x: np.ndarray, n_s: int) -> RobustProjectionResult:
    """Exclude the n_s most suspect coordinates, then least-squares the rest.

    Rows are ranked by the preliminary residual |x - U U^T x|; ties resolve
    by ascending value then ascending index, so results are deterministic.
    With n_s = 0 every row is kept, and a_hat is U^T x.
    """
    U = np.asarray(U, dtype=float)
    x = np.asarray(x, dtype=float)
    if U.ndim != 2:
        raise DimensionMismatch("basis must be a matrix")
    if x.ndim != 1 or x.size != U.shape[0]:
        raise DimensionMismatch(
            f"window of length {x.size} does not match basis with {U.shape[0]} rows"
        )
    m, r = U.shape
    if n_s < 0 or n_s + r > m:
        raise BadBudget(f"n_s={n_s} with rank {r} and {m} rows")
    a0 = U.T @ x
    prelim, order = _rank_rows(U, x, a0)
    a_hat = a0 if n_s == 0 else _exclude_and_solve(U, x, order, n_s)
    return RobustProjectionResult(a_hat, np.sort(order[: m - n_s]), x - U @ a_hat, prelim)


def robust_coefficients(U: np.ndarray, x: np.ndarray, n_s: int) -> np.ndarray:
    """a_hat of robust_projection(U, x, n_s), with nothing checked.

    U must be a float64 basis, x a float64 window of U.shape[0] rows, and
    0 <= n_s <= U.shape[0] - U.shape[1]. With n_s = 0 every row is kept, so
    a_hat is U^T x and the rows are not ranked.
    """
    a0 = U.T @ x
    if n_s == 0:
        return a0  # full-row least squares on an orthonormal basis
    return _exclude_and_solve(U, x, _rank_rows(U, x, a0)[1], n_s)


def _exclude_and_solve(U: np.ndarray, x: np.ndarray, order: np.ndarray, n_s: int) -> np.ndarray:
    """Least squares without the last n_s >= 1 rows of order: the downdate,
    else the QR of the kept rows. order is not changed."""
    m = U.shape[0]
    a_hat = _downdate_solve(U, x, order[m - n_s:])
    if a_hat is None:
        a_hat = _kept_row_solve(U, x, np.sort(order[: m - n_s]))
    return a_hat


def _rank_rows(U: np.ndarray, x: np.ndarray, a0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The preliminary residual |x - U a0|, and the rows by ascending residual
    (a stable sort, so equal residuals keep ascending index)."""
    prelim = x - U @ a0
    np.abs(prelim, out=prelim)
    return prelim, prelim.argsort(kind="stable")


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
    # Positional arguments, which f2py parses faster than keywords: dsyrk's
    # beta, c, trans, lower; dposv's lower, overwrite_a, overwrite_b; dgemv's
    # beta, y, offx, incx, offy, incy, trans, overwrite_y.
    s = dsyrk(-1.0, b_t, 1.0, _identity(excluded.size), 1, 1)
    chol, w, info = dposv(s, g @ b_t, 1, 1, 1)
    if info != 0 or not math.prod(chol.diagonal().tolist()) ** 2 >= DOWNDATE_FLOOR:
        return None
    a_hat = dgemv(1.0, b_t, w, 1.0, g, 0, 1, 0, 1, 0, 1)
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

    The fallback of robust_coefficients for windows the downdate declines, and
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
