"""Streaming anomaly detector built on robust window projection.

Training fits a trajectory-subspace model to the recent past and replays the
training windows to seed a memory of residual magnitudes. Each arriving value
then gets one score record:

1. reject a non-finite value, then form the newest window: the last M1 - 1
   history values followed by the new one;
2. robustly project the window onto the basis, which excludes the most
   suspect coordinates (possibly including the new value itself) before
   solving for coefficients;
3. the residual is the new value minus its reconstruction from the last basis
   row, and the score is the fraction of remembered residual magnitudes that
   fall strictly below it (computed before the new magnitude is remembered);
   only now is the value appended and the state advanced;
4. scores above the threshold flag the stamp, and optionally the stored value
   is replaced by its reconstruction so one anomaly cannot contaminate the
   windows of its successors;
5. every retrain_every steps the model is re-fitted to the kept history,
   while the history buffer holds fewer than t_max values; once it is full
   the basis is considered stable.

train and warm_start return a DetectorState, which is the rpe (and, with
n_s = 0, the spe) detector of the shared protocol in the baselines module:
state.step(value) is step(state, value). The method looks the module
function up when it is called, so a wrapper put on detector.step sees every
step.

The history is a float64 buffer holding the last t_max stored values, so the
newest window is a slice of it and the history does not grow with the stream.
The residual memory is a sorted float64 array with short sorted lists of
the appends and evictions not yet merged into it, so a rank is three binary
searches at any length; it persists across re-fits. Scores compare a
residual with the past, so they are meaningful immediately after training
and invariant to the residual scale.

A step does no work whose result it drops. The model is checked against the
config once, when a state gets it (the config is frozen, and a refit keeps
rank + n_s <= M1 through rank_cap), so each step projects with
projection.robust_coefficients, which checks nothing and returns only the
coefficients. This module calls it by the name robust_projection, the name
of the projection layer that bench/tracing.py times under detector.step. The
score comes back as a ScoreRecord, an immutable NamedTuple.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadBudget, NonFiniteValue, SeriesTooShort
from .projection import robust_coefficients as robust_projection
from .subspace import DEFAULT_RANK_CAP, ESTIMATORS, SubspaceModel
from .trajectory import build_trajectory, series_values


@dataclass(frozen=True)
class DetectorConfig:
    """Knobs for training and streaming, frozen once validated.

    t_max is the number of stored values the history buffer keeps; a step
    refits every retrain_every steps while the buffer holds fewer than t_max
    values. memory_cap bounds the residual memory with oldest-first
    eviction; None keeps everything.
    """

    M1: int = 30
    n_s: int = 5
    cdf_threshold: float = 0.95
    retrain_every: int = 100
    t_max: int = 300
    estimator: str = "simple"
    replace_anomalous_values: bool = True
    memory_cap: int | None = None

    def __post_init__(self):
        for name in ("M1", "n_s", "retrain_every", "t_max", "memory_cap"):
            value = getattr(self, name)
            integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            if not (integer or (name == "memory_cap" and value is None)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.replace_anomalous_values, bool):
            raise ValueError(
                f"replace_anomalous_values must be a bool, got {self.replace_anomalous_values!r}"
            )
        if self.M1 < 2:
            raise ValueError("M1 must be at least 2")
        if not 0 <= self.n_s < self.M1:
            raise ValueError("n_s must lie in [0, M1)")
        if not 0.0 < self.cdf_threshold < 1.0:
            raise ValueError("cdf_threshold must lie strictly between 0 and 1")
        if self.retrain_every < 1:
            raise ValueError("retrain_every must be positive")
        if self.t_max < 2 * self.M1:
            raise ValueError("t_max must allow at least two windows of history")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.memory_cap is not None and self.memory_cap < 1:
            raise ValueError("memory_cap must be positive when set")

    @property
    def rank_cap(self) -> int:
        # Keeps the robust budget feasible: rank + n_s never exceeds M1.
        return min(DEFAULT_RANK_CAP, self.M1 - self.n_s)


# Fewest pending values at which ResidualMemory merges (see its docstring).
MERGE_MIN = 1024


class ResidualMemory:
    """Multiset of past residual magnitudes with strict-less empirical CDF.

    A log-structured merge on one sorted float64 array: the array holds the
    merged values, a short sorted list the values appended since the last
    merge, and another the evicted values that are still in the array (an
    evicted value still in the appended list leaves that list instead). A
    rank is one bisect of each list and one searchsorted of the array. When
    the lists together pass max(MERGE_MIN, 8 * isqrt(array size)) values, one
    np.delete and one np.insert fold them into the array, so the amortised
    cost of an append stays about flat as the memory grows. A deque keeps
    the insertion order for eviction. A NaN magnitude counts in the length
    but is below no value, and a NaN probe ranks 0.
    """

    def __init__(self, cap: int | None = None):
        self._merged = np.empty(0)
        self._added: list[float] = []
        self._evicted: list[float] = []
        self._merge_at = MERGE_MIN
        self._order: deque[float] = deque()
        self._cap = cap

    def append(self, value: float) -> None:
        value = float(value)
        self._order.append(value)
        if value == value:  # a NaN is below nothing, so it stays out of the ranks
            insort(self._added, value)
        if self._cap is not None and len(self._order) > self._cap:
            oldest = self._order.popleft()
            if oldest == oldest:
                added = self._added
                i = bisect_left(added, oldest)
                if i < len(added) and added[i] == oldest:
                    del added[i]
                else:
                    insort(self._evicted, oldest)
        if len(self._added) + len(self._evicted) > self._merge_at:
            self._merge()

    def _merge(self) -> None:
        """Fold both lists into the sorted array and empty them."""
        merged = self._merged
        if self._evicted:
            evicted = np.array(self._evicted)
            # Each evicted value is in the array; the k-th of a run of equal
            # values deletes the k-th equal entry.
            first = evicted.searchsorted(evicted)
            rank = np.arange(evicted.size) - first
            merged = np.delete(merged, merged.searchsorted(evicted) + rank)
        if self._added:
            added = np.array(self._added)
            merged = np.insert(merged, merged.searchsorted(added), added)
        self._merged = merged
        self._added, self._evicted = [], []
        self._merge_at = max(MERGE_MIN, 8 * math.isqrt(merged.size))

    def cdf(self, value: float) -> float:
        """Fraction of remembered magnitudes strictly below value."""
        if not self._order:
            return 0.0
        value = float(value)
        if value != value:  # a bisect ranks a NaN 0; searchsorted ranks it last
            return 0.0
        below = bisect_left(self._added, value)
        if self._merged.size:  # a memory that never merged skips searchsorted's dispatch
            below += int(self._merged.searchsorted(value)) - bisect_left(self._evicted, value)
        return below / len(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def values(self) -> tuple[float, ...]:
        return tuple(self._order)


class ScoreRecord(NamedTuple):
    """One scored time stamp, an immutable named tuple.

    index is the absolute ordinal of the sample in the stream, counting the
    training samples first. replaced_value is the reconstruction written back
    into the history buffer in place of the arriving value, present only when
    the stamp was flagged and replacement is enabled.
    """

    index: int
    residual: float
    abs_residual: float
    cdf_score: float
    flagged: bool
    replaced_value: float | None = None


# Spare slots past t_max in the history buffer; when they run out the last
# t_max values move back to the front.
HISTORY_SLACK = 1024


class DetectorState:
    """What a stream carries from one step to the next.

    history is given as a sequence of stored values, oldest first; only the
    last config.t_max are kept. Reading state.history returns a copy of the
    kept values.

    This is the one place where a model meets a config, so step checks
    neither: the model's window must be config.M1 (ValueError), its rank
    must leave n_s rows to exclude (BadBudget), and the history must fill
    the first window (SeriesTooShort).
    """

    def __init__(self, config: DetectorConfig, model: SubspaceModel,
                 memory: ResidualMemory, history, counter: int = 0,
                 samples_seen: int = 0):
        kept = np.asarray(history, dtype=float)[-config.t_max:]
        if model.M1 != config.M1:
            raise ValueError(f"model window {model.M1} does not match config M1 {config.M1}")
        if model.r + config.n_s > config.M1:
            raise BadBudget(f"n_s={config.n_s} with rank {model.r} and M1={config.M1}")
        if kept.size < config.M1 - 1:
            raise SeriesTooShort(
                f"a window needs {config.M1 - 1} history values, got {kept.size}"
            )
        self.config = config
        self.model = model
        self.memory = memory
        self.counter = counter
        self.samples_seen = samples_seen
        self._buffer = np.empty(config.t_max + HISTORY_SLACK)
        self._buffer[:kept.size] = kept
        self._start, self._end = 0, kept.size

    @property
    def history(self) -> np.ndarray:
        return self._buffer[self._start:self._end].copy()

    def step(self, value: float) -> ScoreRecord:
        """step(self, value): the module function, looked up when called."""
        return step(self, value)

    def _window(self, value: float) -> np.ndarray:
        """The newest window: the last M1 - 1 kept values, then value.

        value goes into the free slot past the kept values; nothing is
        committed until _push.
        """
        end = self._end
        self._buffer[end] = value
        return self._buffer[end + 1 - self.config.M1:end + 1]

    def _push(self, value: float) -> None:
        """Commit value as the newest kept value."""
        buffer, end = self._buffer, self._end
        buffer[end] = value
        end += 1
        if end - self._start > self.config.t_max:
            self._start += 1
        if end == buffer.size:
            kept = end - self._start
            buffer[:kept] = buffer[self._start:end]
            self._start, end = 0, kept
        self._end = end


def fit_model(values: np.ndarray, config: DetectorConfig) -> SubspaceModel:
    """Fit the config's estimator, M1 and rank cap to the last t_max values."""
    estimator = ESTIMATORS[config.estimator]
    return estimator(values[-config.t_max:], config.M1, rank_cap=config.rank_cap)


def _seeded_state(model: SubspaceModel, values: np.ndarray,
                  config: DetectorConfig) -> DetectorState:
    """Keep the last t_max values as history, then replay every complete
    window of it through the scoring steps to seed the residual memory."""
    state = DetectorState(
        config=config,
        model=model,
        memory=ResidualMemory(cap=config.memory_cap),
        history=values[-config.t_max:],
        samples_seen=int(values.size),
    )
    windows = build_trajectory(state.history, config.M1)
    U, n_s = model.U, config.n_s
    u_last = U[-1]
    for j in range(windows.shape[1]):
        window = windows[:, j]
        a_hat = robust_projection(U, window, n_s)
        state.memory.append(abs(window[-1] - float(a_hat.dot(u_last))))
    return state


def train(t_train, config: DetectorConfig | None = None) -> DetectorState:
    """Fit the subspace model and seed the residual memory.

    Only the most recent t_max training samples are kept. Requires at least
    2 * M1 samples. With config.n_s = 0 every projection keeps all rows,
    which is the plain projection U^T x (the spe baseline).
    """
    config = config if config is not None else DetectorConfig()
    values = series_values(t_train)
    if values.size < 2 * config.M1:
        raise SeriesTooShort(
            f"training needs at least {2 * config.M1} samples, got {values.size}"
        )
    return _seeded_state(fit_model(values, config), values, config)


def warm_start(model: SubspaceModel, t_train,
               config: DetectorConfig | None = None) -> DetectorState:
    """Build a streaming state around an existing model.

    The training series seeds the history buffer and residual memory, but the
    model itself is taken as given rather than re-fitted. Used when a model
    was persisted earlier and detection resumes on new data.
    """
    config = config if config is not None else DetectorConfig()
    values = series_values(t_train)
    if values.size < config.M1:
        raise SeriesTooShort(
            f"warm start needs at least {config.M1} samples, got {values.size}"
        )
    return _seeded_state(model, values, config)


def step(state: DetectorState, value: float) -> ScoreRecord:
    """Score one arriving value and advance the state.

    The value is checked and the window projected before anything is
    committed, so a step that raises (NonFiniteValue, RankDeficient) leaves
    the state as it was.
    """
    model = state.model
    config = state.config
    index = state.samples_seen
    value = float(value)
    if not math.isfinite(value):
        raise NonFiniteValue(index, "non-finite stream value")

    U = model.U
    a_hat = robust_projection(U, state._window(value), config.n_s)
    reconstruction = float(a_hat.dot(U[-1]))
    residual = value - reconstruction
    magnitude = abs(residual)

    state.counter += 1
    state.samples_seen += 1
    cdf_score = state.memory.cdf(magnitude)  # before remembering this one
    state.memory.append(magnitude)

    flagged = cdf_score > config.cdf_threshold
    replaced_value = None
    if flagged and config.replace_anomalous_values:
        replaced_value = reconstruction
    state._push(value if replaced_value is None else replaced_value)

    if state.counter % config.retrain_every == 0 and state._end - state._start < config.t_max:
        state.model = fit_model(state.history, config)

    return ScoreRecord(index, residual, magnitude, cdf_score, flagged, replaced_value)
