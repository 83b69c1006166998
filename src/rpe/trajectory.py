"""Series container, sliding-window trajectory matrices, and CSV ingestion.

The trajectory matrix of a series ``t`` with window length ``w`` stacks every
length-``w`` sliding window as one column, so column ``j`` is ``t[j : j + w]``
and entry ``(i, j)`` is ``t[i + j]``. Anti-diagonals are therefore constant,
and flattening them back recovers the source series exactly.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteValue, WindowTooLarge


@dataclass(frozen=True)
class TimeSeries:
    """Univariate series with optional boolean anomaly labels.

    Values must be finite; construction rejects NaN and infinities naming the
    first offending index. Timestamps, when present, are carried through
    verbatim and never interpreted.
    """

    values: np.ndarray
    labels: np.ndarray | None = None
    timestamps: tuple[str, ...] | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if values.size == 0:
            raise ValueError("series must contain at least one sample")
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise NonFiniteValue(int(bad[0]))
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=bool)
            if labels.shape != values.shape:
                raise ValueError("labels must match values in length")
            labels = labels.copy()
            labels.setflags(write=False)
            object.__setattr__(self, "labels", labels)
        if self.timestamps is not None:
            ts = tuple(str(s) for s in self.timestamps)
            if len(ts) != values.size:
                raise ValueError("timestamps must match values in length")
            object.__setattr__(self, "timestamps", ts)

    def __len__(self) -> int:
        return int(self.values.size)


def series_values(t) -> np.ndarray:
    """Accept a TimeSeries or anything array-like; return a float vector."""
    if isinstance(t, TimeSeries):
        return t.values
    values = np.asarray(t, dtype=float)
    if values.ndim != 1:
        raise ValueError("expected a one-dimensional series")
    return values


def build_trajectory(t, window_size: int) -> np.ndarray:
    """Stack every sliding window of the series as a matrix column.

    Returns a read-only, Fortran-ordered copy of shape
    (window_size, n - window_size + 1).
    """
    values = series_values(t)
    n = values.size
    if window_size < 1:
        raise ValueError("window_size must be positive")
    if window_size > n:
        raise WindowTooLarge(
            f"window_size {window_size} exceeds series length {n}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(values, window_size)
    matrix = np.array(windows.T, order="F")
    matrix.setflags(write=False)
    return matrix


# CSV contract: one sample per row, columns timestamp,value[,label]; a header
# row is tolerated and detected by a non-numeric value field.

_TRUE_STRINGS = {"1", "true", "t", "yes"}
_FALSE_STRINGS = {"0", "false", "f", "no", ""}


def _parse_label(text: str, index: int) -> bool:
    low = text.strip().lower()
    if low in _TRUE_STRINGS:
        return True
    if low in _FALSE_STRINGS:
        return False
    raise ValueError(f"unrecognised label {text!r} at row {index}")


def read_csv(path, impute_median: bool = False) -> TimeSeries:
    """Load timestamp,value[,label] rows.

    Empty value fields are missing values. Missing, NaN, and infinite values
    are rejected with the offending index named, unless impute_median is set,
    in which case they are replaced by the median of the finite values.
    """
    timestamps: list[str] = []
    raw: list[float] = []
    labels: list[bool] = []
    saw_label = False
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for row_no, row in enumerate(reader):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise ValueError(f"row {row_no} has fewer than two columns")
            field = row[1].strip()
            if row_no == 0 and field:
                try:
                    float(field)
                except ValueError:
                    continue  # header row
            index = len(raw)
            if not field:
                value = np.nan
            else:
                try:
                    value = float(field)
                except ValueError as exc:
                    raise ValueError(
                        f"unparseable value {field!r} at index {index}"
                    ) from exc
            timestamps.append(row[0])
            raw.append(value)
            if len(row) >= 3 and row[2].strip() != "":
                saw_label = True
                labels.append(_parse_label(row[2], index))
            else:
                labels.append(False)
    values = np.asarray(raw, dtype=float)
    if values.size == 0:
        raise ValueError(f"{path}: no data rows")
    finite = np.isfinite(values)
    if not finite.all():
        if not impute_median:
            raise NonFiniteValue(int(np.flatnonzero(~finite)[0]),
                                 "missing or non-finite value")
        if not finite.any():
            raise ValueError("cannot impute: no finite values present")
        values[~finite] = np.median(values[finite])
    return TimeSeries(
        values=values,
        labels=np.asarray(labels, dtype=bool) if saw_label else None,
        timestamps=tuple(timestamps),
    )


def write_csv(path, t: TimeSeries) -> None:
    """Write timestamp,value,label rows with a header."""
    n = len(t)
    timestamps = t.timestamps if t.timestamps is not None else [str(i) for i in range(n)]
    labels = t.labels if t.labels is not None else np.zeros(n, dtype=bool)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "value", "label"])
        for ts, v, lab in zip(timestamps, t.values, labels):
            writer.writerow([ts, repr(float(v)), int(lab)])
