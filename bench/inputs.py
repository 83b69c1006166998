"""Seeded input series for the stream and CLI workloads, made with numpy only.

The recipe follows the paper's synthetic benchmark: a mixture of four
cosines with fixed weights, periods drawn from per-component ranges, random
phases and Gaussian noise of sigma 0.1. Point anomalies add a constant offset
of +/- (q0.9 - q0.1) of the clean series. The package's own `rpe.synth` is
deliberately not used, so a change to it cannot change these inputs.
"""

from __future__ import annotations

import hashlib

import numpy as np

WEIGHTS = np.array([2.0, 1.6, 1.2, 0.8])
PERIOD_LO = np.array([40.0, 20.0, 10.0, 2.0])
PERIOD_HI = np.array([70.0, 40.0, 20.0, 6.0])
NOISE_SIGMA = 0.1


def make_series(seed: int, length: int, clean_prefix: int, anomaly_share: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """Values and boolean labels; the first clean_prefix stamps stay clean.

    round(anomaly_share * (length - clean_prefix)) distinct stamps after the
    prefix carry a full-amplitude point anomaly with a random sign.
    """
    rng = np.random.default_rng(seed)
    periods = rng.uniform(PERIOD_LO, PERIOD_HI)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=WEIGHTS.size)
    j = np.arange(length, dtype=float)[:, None]
    values = (WEIGHTS * np.cos(2.0 * np.pi * j / periods + phases)).sum(axis=1)
    values += rng.normal(0.0, NOISE_SIGMA, size=length)
    labels = np.zeros(length, dtype=bool)
    count = round(anomaly_share * (length - clean_prefix))
    if count:
        scale = np.quantile(values, 0.9) - np.quantile(values, 0.1)
        where = clean_prefix + rng.choice(length - clean_prefix, size=count, replace=False)
        values[where] += rng.choice((-1.0, 1.0), size=count) * scale
        labels[where] = True
    return values, labels


def write_series_csv(path, values: np.ndarray, labels: np.ndarray) -> None:
    """timestamp,value,label rows; repr keeps every float bit-exact."""
    with open(path, "w") as fh:
        fh.write("timestamp,value,label\n")
        fh.writelines(f"{i},{float(v)!r},{int(lab)}\n"
                      for i, (v, lab) in enumerate(zip(values, labels)))


def digest(*parts) -> str:
    """SHA-256 over arrays (their raw bytes) and strings, in order."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(str(part).encode())
    return h.hexdigest()
