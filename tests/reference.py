"""Reference code that only the tests use: an independent l1 solver to check
the closed-form robust projection against, and the inverse of the trajectory
embedding."""

from __future__ import annotations

import warnings

import numpy as np

from rpe.projection import _validate

IRLS_SMOOTHING = 1e-8


class DidNotConverge(UserWarning):
    """Iterative solver hit its iteration cap.

    Warning-level, not fatal: the last iterate is still returned and is
    attached here as ``last_iterate``.
    """

    def __init__(self, message: str, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


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


def trajectory_to_series(matrix: np.ndarray) -> np.ndarray:
    """Invert build_trajectory: first row, then the tail of the last column."""
    return np.concatenate([matrix[0, :], matrix[1:, -1]])
