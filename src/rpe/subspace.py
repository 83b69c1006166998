"""Robust estimation of the trajectory subspace, and model persistence.

All estimators build the trajectory matrix of the (possibly pre-cleaned)
series, take a thin SVD, and keep the leading left singular vectors. They
differ in how they keep one-off corrupted samples from polluting the basis:

* ``estimate_simple``: clip the series first. The largest-magnitude samples
  are replaced by the series median before embedding.
* ``estimate_elementwise``: clean a copy of the series the same way, fit a
  provisional basis to it, then overwrite the worst-explained entries of the
  raw trajectory matrix with their reconstruction and re-fit.
* ``estimate_columnwise``: embed the raw series, score each column by how
  little of its energy the provisional basis captures, drop the worst
  columns, and re-fit on the survivors.

Rank is chosen from the singular value spectrum once per estimate and held
fixed through any re-fit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .coherence import check_orthonormal
from .errors import AllColumnsDropped, AllZeroSpectrum, SeriesTooShort
from .trajectory import build_trajectory, series_values

DEFAULT_RANK_CAP = 10
RANK_RATIO = 0.01
MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SubspaceModel:
    """Orthonormal basis of the trajectory subspace for one window length."""

    U: np.ndarray
    r: int
    M1: int
    singular_values: np.ndarray

    def __post_init__(self):
        U = check_orthonormal(self.U).copy()
        if U.shape != (self.M1, self.r):
            raise ValueError(f"basis shape {U.shape} does not match (M1={self.M1}, r={self.r})")
        U.setflags(write=False)
        object.__setattr__(self, "U", U)
        s = np.asarray(self.singular_values, dtype=float).copy()
        s.setflags(write=False)
        object.__setattr__(self, "singular_values", s)


def select_rank(singular_values, ratio: float = RANK_RATIO, cap: int = DEFAULT_RANK_CAP) -> int:
    """Count singular values above ratio times the largest, clamped to [1, cap]."""
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0 or s[0] <= 0.0:
        raise AllZeroSpectrum("leading singular value is zero")
    r = int(np.count_nonzero(s > ratio * s[0]))
    return max(1, min(r, cap))


def _require_length(values: np.ndarray, window_size: int) -> None:
    if values.size < 2 * window_size:
        raise SeriesTooShort(
            f"need at least {2 * window_size} samples for window_size {window_size}, got {values.size}"
        )


def _count(percent: float, total: int) -> int:
    return math.ceil(percent / 100.0 * total)


def _median_replace(values: np.ndarray, count: int) -> np.ndarray:
    """Replace the count largest-magnitude samples with the series median."""
    out = values.copy()
    if count > 0:
        worst = np.argsort(-np.abs(values), kind="stable")[:count]
        out[worst] = np.median(values)
    return out


def _svd(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    left, spectrum, _ = np.linalg.svd(matrix, full_matrices=False)
    return left, spectrum


def estimate_simple(t, window_size: int, beta_percent: float = 1.0,
                    rank_cap: int = DEFAULT_RANK_CAP) -> SubspaceModel:
    """Median-clip the series, embed, and keep the leading singular vectors."""
    values = series_values(t)
    _require_length(values, window_size)
    cleaned = _median_replace(values, _count(beta_percent, values.size))
    left, spectrum = _svd(build_trajectory(cleaned, window_size))
    r = select_rank(spectrum, cap=rank_cap)
    return SubspaceModel(U=left[:, :r], r=r, M1=window_size, singular_values=spectrum)


def estimate_elementwise(t, window_size: int, alpha_percent: float = 3.0,
                         rank_cap: int = DEFAULT_RANK_CAP) -> SubspaceModel:
    """Repair the worst-explained trajectory entries, then re-fit the basis.

    A provisional basis fitted to the median-clipped series scores every raw
    matrix entry by absolute reconstruction error; the top alpha percent of
    entries are overwritten with the reconstruction of the clipped matrix and
    the basis is re-fitted at the rank chosen in the provisional pass.
    """
    values = series_values(t)
    _require_length(values, window_size)
    X = np.array(build_trajectory(values, window_size))
    cleaned = _median_replace(values, _count(alpha_percent, values.size))
    Q = build_trajectory(cleaned, window_size)
    left_q, spectrum_q = _svd(Q)
    r = select_rank(spectrum_q, cap=rank_cap)
    U0 = left_q[:, :r]
    n_entries = _count(alpha_percent, X.size)
    if n_entries > 0:
        errors = np.abs(X - U0 @ (U0.T @ X))
        worst_flat = np.argsort(-errors.ravel(), kind="stable")[:n_entries]
        rows, cols = np.unravel_index(worst_flat, X.shape)
        repaired = U0 @ (U0.T @ Q)
        X[rows, cols] = repaired[rows, cols]
    left, spectrum = _svd(X)
    return SubspaceModel(U=left[:, :r], r=r, M1=window_size, singular_values=spectrum)


def column_outlyingness(X: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Fraction of each column's energy the basis fails to capture.

    Columns are l2-normalised first, so the score is 1 - ||V^T x_j||^2 / ||x_j||^2
    in [0, 1]; large means the column sits outside the fitted subspace.
    All-zero columns score 0 (nothing to explain).
    """
    norms_sq = np.einsum("ij,ij->j", X, X)
    captured_sq = np.einsum("ij,ij->j", basis.T @ X, basis.T @ X)
    out = np.zeros(X.shape[1])
    nz = norms_sq > 0
    out[nz] = 1.0 - captured_sq[nz] / norms_sq[nz]
    return np.clip(out, 0.0, 1.0)


def estimate_columnwise(t, window_size: int, drop_percent: float = 5.0,
                        rank_cap: int = DEFAULT_RANK_CAP) -> SubspaceModel:
    """Drop the columns worst explained by a provisional basis, then re-fit."""
    values = series_values(t)
    _require_length(values, window_size)
    if drop_percent >= 100.0:
        raise AllColumnsDropped("drop_percent must be below 100")
    X = build_trajectory(values, window_size)
    left, spectrum = _svd(X)
    r = select_rank(spectrum, cap=rank_cap)
    scores = column_outlyingness(X, left[:, :r])
    n_drop = _count(drop_percent, X.shape[1])
    if X.shape[1] - n_drop < r:
        raise AllColumnsDropped(
            f"dropping {n_drop} of {X.shape[1]} columns leaves fewer than rank {r}"
        )
    keep = np.ones(X.shape[1], dtype=bool)
    if n_drop > 0:
        keep[np.argsort(-scores, kind="stable")[:n_drop]] = False
    left_k, spectrum_k = _svd(X[:, keep])
    return SubspaceModel(U=left_k[:, :r], r=r, M1=window_size, singular_values=spectrum_k)


ESTIMATORS = {
    "simple": estimate_simple,
    "elementwise": estimate_elementwise,
    "columnwise": estimate_columnwise,
}


# Persistence. Floats go through repr, which round-trips bit-exactly.

def model_to_dict(model: SubspaceModel) -> dict:
    return {
        "version": MODEL_FORMAT_VERSION,
        "M1": int(model.M1),
        "r": int(model.r),
        "U": [float(v) for v in model.U.ravel(order="C")],
        "singular_values": [float(v) for v in model.singular_values],
    }


def model_from_dict(payload: dict) -> SubspaceModel:
    version = payload.get("version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    m1 = int(payload["M1"])
    r = int(payload["r"])
    flat = np.asarray(payload["U"], dtype=float)
    if flat.size != m1 * r:
        raise ValueError("basis payload does not match M1 x r")
    return SubspaceModel(
        U=flat.reshape(m1, r, order="C"),
        r=r,
        M1=m1,
        singular_values=np.asarray(payload["singular_values"], dtype=float),
    )


def save_model(model: SubspaceModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh)


def load_model(path) -> SubspaceModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
