"""Incoherence diagnostics for an orthonormal basis.

For a basis U with orthonormal columns these quantify how concentrated the
subspace is on individual coordinates:

* ``mu_squared(U)``: the largest squared row norm of U divided by the rank.
  Small values mean no single coordinate dominates the subspace.
* ``gamma_estimate(U)``: the reciprocal of the minimum of ||U h||_1 over unit
  vectors h. The minimum is found numerically, so the reported value is a
  lower bound on the true gamma that is tight when the search succeeds.
* ``coherence_report(U)``: both, plus their product kappa =
  sqrt(mu_squared) * gamma, which controls when the robust projection
  provably matches the l1 solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotOrthonormal

ORTHONORMALITY_TOL = 1e-8


@dataclass(frozen=True)
class CoherenceReport:
    mu_squared: float
    gamma_estimate: float
    kappa_estimate: float
    gamma_is_exact: bool


def check_orthonormal(U: np.ndarray, tol: float = ORTHONORMALITY_TOL) -> np.ndarray:
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[0] < U.shape[1] or U.shape[1] < 1:
        raise NotOrthonormal("basis must be a tall matrix with at least one column")
    gram = U.T @ U
    err = np.max(np.abs(gram - np.eye(U.shape[1])))
    if not err <= tol:  # a NaN entry makes err NaN, which no bound admits
        raise NotOrthonormal(f"columns deviate from orthonormality by {err:.3e}")
    return U


def mu_squared(U: np.ndarray) -> float:
    """Largest squared row norm of U, divided by the rank."""
    U = check_orthonormal(U)
    row_norms_sq = np.einsum("ij,ij->i", U, U)
    return float(row_norms_sq.max() / U.shape[1])


def _l1_on_sphere(U: np.ndarray, h: np.ndarray) -> float:
    return float(np.abs(U @ h).sum())


def _descend(U: np.ndarray, h: np.ndarray) -> float:
    """Projected subgradient descent for min ||U h||_1 on the unit sphere.

    Runs a few sweeps with shrinking step sizes, restarting each sweep from
    the best point seen so far, and returns the best objective value. The
    objective is piecewise linear on the sphere, so the tracked best rather
    than the final iterate is the estimate.
    """
    best_val = _l1_on_sphere(U, h)
    best_h = h
    for base_step, n_iter in ((0.3, 200), (0.03, 200), (0.003, 200)):
        h = best_h
        for k in range(n_iter):
            g = U.T @ np.sign(U @ h)
            g = g - (g @ h) * h  # tangent component
            gnorm = np.linalg.norm(g)
            if gnorm < 1e-14:
                break
            h = h - (base_step / np.sqrt(k + 1.0)) * (g / gnorm)
            h = h / np.linalg.norm(h)
            val = _l1_on_sphere(U, h)
            if val < best_val:
                best_val, best_h = val, h
    return best_val


def gamma_estimate(U: np.ndarray, n_starts: int = 64, seed: int = 0) -> float:
    """Estimate gamma(U) = 1 / min_{||h||_2 = 1} ||U h||_1.

    Multi-start projected subgradient descent; deterministic for a given
    seed because starts are explored sequentially and reduced with min.
    For a single column the sphere is just {-1, +1} and the value is exact.
    n_starts below 1 raises ValueError before any work.
    """
    if n_starts < 1:
        raise ValueError(f"n_starts must be at least 1, got {n_starts}")
    U = check_orthonormal(U)
    if U.shape[1] == 1:
        return float(1.0 / np.abs(U[:, 0]).sum())
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(n_starts):
        h0 = rng.standard_normal(U.shape[1])
        h0 /= np.linalg.norm(h0)
        best = min(best, _descend(U, h0))
    return float(1.0 / best)


def coherence_report(U: np.ndarray, n_starts: int = 64, seed: int = 0) -> CoherenceReport:
    mu2 = mu_squared(U)
    gamma = gamma_estimate(U, n_starts=n_starts, seed=seed)
    return CoherenceReport(
        mu_squared=mu2,
        gamma_estimate=gamma,
        kappa_estimate=float(np.sqrt(mu2) * gamma),
        gamma_is_exact=U.shape[1] == 1,
    )
