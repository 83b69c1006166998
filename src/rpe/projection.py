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
(np.linalg.qr, then LAPACK dtrtrs).

The solve has one implementation: rank the rows once, then
``_exclude_and_solve``. ``robust_projection`` is the public entry point: it
checks the shapes, the budget and that every window value and basis entry is
finite, and returns the coefficients with the evidence behind them.
``robust_coefficients`` is the streaming detector's core: it runs the same
ranking and solve on a window that is already checked, and returns only the
coefficients.

The BLAS and LAPACK kernels (dgemv, dsyrk, dposv, dtrtrs) are scipy's own
f2py objects from scipy.linalg._fblas and _flapack, loaded from scipy's
install directory without the package init of scipy and scipy.linalg: that
init would triple the time of ``import rpe`` and loads nothing rpe calls.
The two modules are registered in sys.modules under their own names, or
reused from there, so rpe and ``import scipy.linalg`` share the same kernels
in either order.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from types import ModuleType
from typing import NamedTuple

import numpy as np

from .errors import BadBudget, DimensionMismatch, NonFiniteValue, RankDeficient

RANK_TOL = 1e-10
# Smallest det(I - B B^T) at which the downdate solve is trusted; below it
# the window goes to the QR solve (see _downdate_solve).
DOWNDATE_FLOOR = 1e-3


def _linalg_extension(name: str) -> ModuleType:
    """scipy.linalg's compiled module ``name``, without scipy's package init:
    the one in sys.modules if scipy.linalg has loaded it, else loaded from
    scipy's install directory and registered there. ImportError if absent."""
    fullname = "scipy.linalg." + name
    module = sys.modules.get(fullname)
    if module is not None:
        return module
    scipy_spec = importlib.util.find_spec("scipy")  # finds, runs no __init__
    spec = None
    if scipy_spec is not None and scipy_spec.submodule_search_locations:
        linalg_dir = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
        finder = FileFinder(linalg_dir, (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(fullname)
    if spec is None:
        raise ImportError(f"no compiled {fullname} in the installed scipy", name=fullname)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[fullname] = module
    return module


_fblas = _linalg_extension("_fblas")
_flapack = _linalg_extension("_flapack")
dgemv, dsyrk = _fblas.dgemv, _fblas.dsyrk
dposv, dtrtrs = _flapack.dposv, _flapack.dtrtrs


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
    With n_s = 0 every row is kept, and a_hat is U^T x. A NaN or infinity in
    the window or the basis raises NonFiniteValue for its first row, before
    any work: it would make every preliminary residual NaN, so no ranking
    could tell which rows to exclude.
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
    bad = ~(np.isfinite(x) & np.isfinite(U).all(axis=1))
    if bad.any():
        raise NonFiniteValue(int(bad.argmax()), "non-finite window value or basis row")
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

    The fallback for windows the downdate declines, and the only place where
    robust_coefficients raises: RankDeficient, or NonFiniteValue for a window
    that overflows (or, in a step, holds an overflowed stored value).
    A NaN on R's diagonal is not rank deficiency (numpy's min propagates it,
    and nan <= tol is false); it fails the finiteness test instead.
    R from np.linalg.qr is C-ordered, so the triangular solve hands LAPACK
    its F-ordered transpose: dtrtrs(R^T, rhs, lower=1, trans=1), the call
    scipy.linalg.solve_triangular(R, rhs) makes for it. A 1 x 1 R is one
    division either way. A nonzero info raises RankDeficient.
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
    a_hat, info = dtrtrs(rmat.T, rhs, lower=1, trans=1)
    if info != 0:
        raise RankDeficient(f"triangular solve of the kept rows failed (LAPACK info {info})")
    return a_hat


def _blamed_row(U: np.ndarray, x: np.ndarray, kept: np.ndarray) -> int:
    """Window row behind a non-finite solve: the first kept row holding a
    non-finite value or basis entry, else (overflow) the largest kept value."""
    bad = ~(np.isfinite(x[kept]) & np.isfinite(U[kept]).all(axis=1))
    return int(kept[np.argmax(bad)] if bad.any() else kept[np.argmax(np.abs(x[kept]))])
