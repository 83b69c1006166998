"""Reference detectors sharing the streaming step interface.

Four methods, one record shape:

* ``rpe``: the robust-projection detector from the detector module.
* ``spe``: the same detector with an exclusion budget of zero rows
  (n_s = 0), which is the plain projection, so a corrupted window
  coordinate leaks into the coefficients.
* ``iid``: Gaussian model over a ring buffer of recent values; the score is
  one minus the two-sided p-value of the new value.
* ``ar``: fixed-order autoregression fitted by least squares; the residual
  is the one-step-ahead prediction error.

Every detector exposes fit(values) and step(value) -> ScoreRecord so the
evaluation harness can drive them interchangeably; step before fit raises
NotTrained, and a NaN or infinity given to fit or step raises NonFiniteValue
before any state changes.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque

import numpy as np

from . import detector
from .detector import DetectorConfig, DetectorState, ResidualMemory, ScoreRecord
from .errors import NonFiniteValue, NotTrained, SeriesTooShort
from .subspace import SubspaceModel
from .trajectory import series_values

IID_BUFFER_LEN = 100
AR_WINDOW = 30
AR_RETRAIN_EVERY = 100


def _fit_ar_weights(values: np.ndarray, window: int) -> np.ndarray:
    """Least-squares one-step predictor with no intercept.

    A rank-deficient design (a constant, a ramp, a pure sine) gets the
    minimum-norm weights that lstsq returns, rather than failing.
    """
    rows = np.lib.stride_tricks.sliding_window_view(values[:-1], window)
    return np.linalg.lstsq(rows, values[window:], rcond=None)[0]


class RpeDetector:
    """Streaming adapter around the robust-projection detector."""

    method = "rpe"

    def __init__(self, config: DetectorConfig | None = None):
        self.config = config if config is not None else DetectorConfig()
        self.state: DetectorState | None = None

    def fit(self, values) -> "RpeDetector":
        self.state = detector.train(values, self.config)
        return self

    def warm_start(self, model: SubspaceModel, values) -> "RpeDetector":
        """Like fit, but around an existing model: values only seed the state."""
        self.state = detector.warm_start(model, values, self.config)
        return self

    def step(self, value: float) -> ScoreRecord:
        if self.state is None:
            raise NotTrained("call fit() before step()")
        return detector.step(self.state, value)


class SpeDetector(RpeDetector):
    """The rpe detector with n_s = 0: every window is projected on all rows."""

    method = "spe"

    def __init__(self, config: DetectorConfig | None = None):
        super().__init__(dataclasses.replace(config or DetectorConfig(), n_s=0))


class _ReferenceDetector:
    """Numbers the records of a baseline that keeps its own state."""

    def __init__(self, threshold: float):
        self.threshold = threshold
        self._index = 0

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

    The score is one minus the two-sided Gaussian p-value of the value under
    the mean and population std of the buffer; zero buffer variance
    degenerates to 1 when the value differs from the mean and 0 when it
    equals it. The value enters the buffer after scoring, evicting the
    oldest entry once the buffer is full.
    """

    method = "iid"

    def __init__(self, threshold: float = 0.95, buffer_len: int = IID_BUFFER_LEN):
        super().__init__(threshold)
        self.buffer_len = buffer_len
        self.buffer: deque | None = None

    def fit(self, values) -> "IidDetector":
        values = series_values(values)
        if values.size == 0:
            raise SeriesTooShort("iid training needs at least one sample")
        self.buffer = deque(values[-self.buffer_len:].tolist(), maxlen=self.buffer_len)
        self._index = values.size
        return self

    def step(self, value: float) -> ScoreRecord:
        if self.buffer is None:
            raise NotTrained("call fit() before step()")
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

    Weights are re-fitted on the whole history every retrain_every steps.
    cdf_score ranks the residual magnitude against past magnitudes, seeded
    from the training residuals, mirroring the detector's memory semantics.
    """

    method = "ar"

    def __init__(self, threshold: float = 0.95, window: int = AR_WINDOW,
                 retrain_every: int = AR_RETRAIN_EVERY):
        super().__init__(threshold)
        self.window = window
        self.retrain_every = retrain_every
        self.weights: np.ndarray | None = None
        self.history: list[float] = []
        self.memory = ResidualMemory()
        self.counter = 0

    def fit(self, values) -> "ArDetector":
        values = series_values(values)
        if values.size < 2 * self.window:
            raise SeriesTooShort(
                f"ar training needs at least {2 * self.window} samples, got {values.size}"
            )
        self.weights = _fit_ar_weights(values, self.window)
        self.history = values.tolist()
        self.counter = 0
        rows = np.lib.stride_tricks.sliding_window_view(values[:-1], self.window)
        residuals = values[self.window:] - rows @ self.weights
        self.memory = ResidualMemory()
        for r in residuals:
            self.memory.append(abs(float(r)))
        self._index = values.size
        return self

    def step(self, value: float) -> ScoreRecord:
        if self.weights is None:
            raise NotTrained("call fit() before step()")
        value = self._checked(value)
        context = np.asarray(self.history[-self.window:])
        residual = value - float(self.weights @ context)
        self.history.append(value)
        self.counter += 1
        if self.counter % self.retrain_every == 0:
            self.weights = _fit_ar_weights(np.asarray(self.history), self.window)
        score = self.memory.cdf(abs(residual))
        self.memory.append(abs(residual))
        return self._record(residual, score)


def make_detector(method: str, config: DetectorConfig | None = None):
    """Factory over the four streaming detectors."""
    if method == "rpe":
        return RpeDetector(config)
    if method == "spe":
        return SpeDetector(config)
    threshold = config.cdf_threshold if config is not None else 0.95
    if method == "iid":
        return IidDetector(threshold=threshold)
    if method == "ar":
        return ArDetector(threshold=threshold)
    raise ValueError(f"unknown method {method!r}")
