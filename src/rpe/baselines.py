"""Reference detectors sharing the streaming step interface.

Four methods, one protocol: make_detector(method, values, config) returns a
trained detector, and its step(value) returns a ScoreRecord.

* ``rpe``: the robust-projection detector; the detector is the
  detector.DetectorState that detector.train returns.
* ``spe``: the same detector with an exclusion budget of zero rows
  (n_s = 0, set by method_config), which is the plain projection, so a
  corrupted window coordinate leaks into the coefficients.
* ``iid``: Gaussian model over a ring buffer of recent values; the score is
  one minus the two-sided p-value of the new value.
* ``ar``: fixed-order autoregression fitted by least squares; the residual
  is the one-step-ahead prediction error.

Each detector trains when it is built, so there is no untrained state. A NaN
or infinity given to training or to step raises NonFiniteValue before any
state changes.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque

import numpy as np

from . import detector
from .detector import DetectorConfig, ResidualMemory, ScoreRecord
from .errors import NonFiniteValue, SeriesTooShort
from .trajectory import series_values

IID_BUFFER_LEN = 100
AR_WINDOW = 30
AR_RETRAIN_EVERY = 100


def _fit_ar_weights(values: np.ndarray) -> np.ndarray:
    """Least-squares one-step predictor over AR_WINDOW lags, no intercept.

    A rank-deficient design (a constant, a ramp, a pure sine) gets the
    minimum-norm weights that lstsq returns, rather than failing.
    """
    rows = np.lib.stride_tricks.sliding_window_view(values[:-1], AR_WINDOW)
    return np.linalg.lstsq(rows, values[AR_WINDOW:], rcond=None)[0]


class _ReferenceDetector:
    """Numbers the records of a baseline that keeps its own state."""

    def __init__(self, threshold: float, index: int):
        self.threshold = threshold
        self._index = index

    def _checked(self, value: float) -> float:
        """value as a float; a NaN or infinity is rejected before it is used."""
        value = float(value)
        if not math.isfinite(value):
            raise NonFiniteValue(self._index, "non-finite stream value")
        return value

    def _record(self, residual: float, score: float) -> ScoreRecord:
        record = ScoreRecord(
            index=self._index,
            residual=residual,
            abs_residual=abs(residual),
            cdf_score=score,
            flagged=score > self.threshold,
        )
        self._index += 1
        return record


class IidDetector(_ReferenceDetector):
    """Gaussian scorer reporting the probability-style score in cdf_score.

    Training keeps the last IID_BUFFER_LEN values. The score is one minus
    the two-sided Gaussian p-value of the value under the mean and
    population std of the buffer; zero buffer variance degenerates to 1 when
    the value differs from the mean and 0 when it equals it. The value
    enters the buffer after scoring, evicting the oldest entry once the
    buffer is full.
    """

    def __init__(self, values, threshold: float = 0.95):
        values = series_values(values)
        if values.size == 0:
            raise SeriesTooShort("iid training needs at least one sample")
        super().__init__(threshold, values.size)
        self.buffer = deque(values[-IID_BUFFER_LEN:].tolist(), maxlen=IID_BUFFER_LEN)

    def step(self, value: float) -> ScoreRecord:
        v = self._checked(value)
        buf = np.asarray(self.buffer)
        mean = float(buf.mean())
        std = float(buf.std())
        if std == 0.0:
            score = 0.0 if v == mean else 1.0
        else:
            score = math.erf(abs(v - mean) / (std * math.sqrt(2.0)))
        self.buffer.append(v)
        return self._record(v - mean, score)


class ArDetector(_ReferenceDetector):
    """Autoregressive one-step predictor in the shared record.

    Weights over AR_WINDOW lags are fitted to the training values, then
    re-fitted on the whole history every AR_RETRAIN_EVERY steps. cdf_score
    ranks the residual magnitude against past magnitudes, seeded from the
    training residuals, mirroring the detector's memory semantics.
    """

    def __init__(self, values, threshold: float = 0.95):
        values = series_values(values)
        if values.size < 2 * AR_WINDOW:
            raise SeriesTooShort(
                f"ar training needs at least {2 * AR_WINDOW} samples, got {values.size}"
            )
        super().__init__(threshold, values.size)
        self.weights = _fit_ar_weights(values)
        self.history: list[float] = values.tolist()
        self.counter = 0
        rows = np.lib.stride_tricks.sliding_window_view(values[:-1], AR_WINDOW)
        residuals = values[AR_WINDOW:] - rows @ self.weights
        self.memory = ResidualMemory()
        for r in residuals:
            self.memory.append(abs(float(r)))

    def step(self, value: float) -> ScoreRecord:
        value = self._checked(value)
        context = np.asarray(self.history[-AR_WINDOW:])
        residual = value - float(self.weights @ context)
        self.history.append(value)
        self.counter += 1
        if self.counter % AR_RETRAIN_EVERY == 0:
            self.weights = _fit_ar_weights(np.asarray(self.history))
        score = self.memory.cdf(abs(residual))
        self.memory.append(abs(residual))
        return self._record(residual, score)


def method_config(method: str, config: DetectorConfig | None = None) -> DetectorConfig:
    """The config a method runs with: spe is rpe with n_s replaced by 0.

    The caller's config is left as it is; None means the default config.
    """
    config = config if config is not None else DetectorConfig()
    return dataclasses.replace(config, n_s=0) if method == "spe" else config


def make_detector(method: str, values, config: DetectorConfig | None = None):
    """A detector of the method, trained on values, with step(value).

    rpe and spe return the detector.DetectorState that detector.train
    builds; iid and ar take only the config's cdf_threshold. An unknown
    method raises ValueError before any training.
    """
    config = method_config(method, config)
    if method in ("rpe", "spe"):
        return detector.train(values, config)
    if method == "iid":
        return IidDetector(values, config.cdf_threshold)
    if method == "ar":
        return ArDetector(values, config.cdf_threshold)
    raise ValueError(f"unknown method {method!r}")
