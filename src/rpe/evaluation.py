"""Stamp-level scoring, best-F1 threshold sweeps, and benchmark scenarios.

A prediction at threshold theta marks every stamp whose score is >= theta.
``max_f1`` sweeps every distinct score as a candidate threshold and returns
the best point; ties prefer higher precision, then the higher threshold, so
results never depend on input order and padding the candidate set with
redundant thresholds cannot change the outcome.

Benchmark scenarios generate seeded synthetic series, train each method on
the clean prefix, stream the rest, and average per-run best-F1 points. The
score axis is the absolute residual for rpe/spe/ar and the probability-style
score for iid; the flagging threshold plays no part in evaluation.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .baselines import make_detector
from .detector import DetectorConfig
from .errors import NoPositives
from .synth import ANOMALY_SEED_OFFSET, AnomalySpec, SynthSpec, generate_clean, inject_anomalies
from .trajectory import TimeSeries

DEFAULT_METHODS = ("rpe", "spe", "iid", "ar")


@dataclass(frozen=True)
class PrCurvePoint:
    threshold: float
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class MethodSummary:
    mean_f1: float
    mean_precision: float
    mean_recall: float
    per_run: tuple[PrCurvePoint, ...]


@dataclass(frozen=True)
class BenchmarkReport:
    scenario: str
    n_runs: int
    seeds: tuple[int, ...]
    methods: dict[str, MethodSummary]


def _confusion_curve(scores: np.ndarray, labels: np.ndarray):
    """Precision/recall/F1 at every distinct score threshold, descending."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    positives = int(labels.sum())
    if positives == 0:
        raise NoPositives("labels contain no positive stamps")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    true_pos = np.cumsum(labels[order])
    predicted = np.arange(1, scores.size + 1)
    # last occurrence of each distinct score = the full ">= threshold" set
    boundary = np.append(sorted_scores[1:] != sorted_scores[:-1], True)
    thresholds = sorted_scores[boundary]
    tp = true_pos[boundary].astype(float)
    pp = predicted[boundary].astype(float)
    precision = tp / pp
    recall = tp / positives
    denom = precision + recall
    f1 = np.where(denom > 0, 2.0 * precision * recall / np.where(denom > 0, denom, 1.0), 0.0)
    return thresholds, precision, recall, f1


def pr_curve(scores, labels) -> list[PrCurvePoint]:
    thresholds, precision, recall, f1 = _confusion_curve(scores, labels)
    return [
        PrCurvePoint(float(t), float(p), float(r), float(f))
        for t, p, r, f in zip(thresholds, precision, recall, f1)
    ]


def max_f1(scores, labels) -> PrCurvePoint:
    """Best achievable F1 over all score thresholds.

    Ties on F1 break toward higher precision, then the higher threshold.
    """
    thresholds, precision, recall, f1 = _confusion_curve(scores, labels)
    best = np.lexsort((thresholds, precision, f1))[-1]
    return PrCurvePoint(
        threshold=float(thresholds[best]),
        precision=float(precision[best]),
        recall=float(recall[best]),
        f1=float(f1[best]),
    )


@dataclass(frozen=True)
class Scenario:
    """Seeded synthetic benchmark: generate, inject, train, stream, score."""

    name: str
    total_len: int = 300
    train_len: int = 100
    n_runs: int = 20
    base_seed: int = 101
    noise_sigma: float = 0.1
    anomaly_fraction: float = 0.04
    amplitude_factor: float = 1.0
    run_length: int = 1
    methods: tuple[str, ...] = DEFAULT_METHODS
    detector_config: dict = field(default_factory=dict)


TABLE_SCENARIOS: dict[str, Scenario] = {
    # Point anomalies at full amplitude.
    "table1": Scenario(name="table1", amplitude_factor=1.0, run_length=1),
    # Point anomalies at half amplitude.
    "table2": Scenario(name="table2", amplitude_factor=0.5, run_length=1),
    # Range anomalies: runs of two at reduced amplitude.
    "table3": Scenario(name="table3", amplitude_factor=1.0 / 1.5, run_length=2),
    # Range anomalies: runs of four at reduced amplitude.
    "table4": Scenario(name="table4", amplitude_factor=1.0 / 1.5, run_length=4),
}

# Score axis per method: residual magnitude except for the probability score.
_SCORE_FIELD = {"rpe": "abs_residual", "spe": "abs_residual",
                "ar": "abs_residual", "iid": "cdf_score"}


def scenario_run_series(scenario: Scenario, seed: int) -> TimeSeries:
    """The labelled series for one run of the scenario."""
    clean = generate_clean(SynthSpec(
        length=scenario.total_len,
        seed=seed,
        noise_sigma=scenario.noise_sigma,
    ))
    if scenario.anomaly_fraction <= 0.0:
        # Nothing to inject; scoring such a run raises NoPositives downstream.
        return clean
    return inject_anomalies(clean, AnomalySpec(
        fraction=scenario.anomaly_fraction,
        amplitude_factor=scenario.amplitude_factor,
        run_length=scenario.run_length,
        seed=seed + ANOMALY_SEED_OFFSET,
        protect_prefix=scenario.train_len,
    ))


def method_scores(series: TimeSeries, train_len: int, methods=DEFAULT_METHODS,
                  detector_config: dict | None = None
                  ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Train each method on the prefix and stream the rest.

    Returns the per-method score vectors over the post-training region and
    the matching label vector.
    """
    if train_len <= 0 or train_len >= len(series):
        raise ValueError("train_len must split the series into two non-empty parts")
    if series.labels is None:
        raise NoPositives("series carries no labels")
    train_values = series.values[:train_len]
    test_values = series.values[train_len:]
    test_labels = series.labels[train_len:]
    scores: dict[str, np.ndarray] = {}
    for method in methods:
        config = DetectorConfig(**(detector_config or {}))
        det = make_detector(method, config)
        det.fit(train_values)
        records = [det.step(float(v)) for v in test_values]
        scores[method] = np.array([getattr(rec, _SCORE_FIELD[method]) for rec in records])
    return scores, test_labels


def run_scenario(scenario: Scenario, curve_sink=None) -> BenchmarkReport:
    """Average per-run best-F1 points over the scenario's seeded runs.

    curve_sink, when given, is called as curve_sink(method, run_index, curve)
    with the full precision/recall curve of each run.
    """
    seeds = tuple(scenario.base_seed + i for i in range(scenario.n_runs))
    points: dict[str, list[PrCurvePoint]] = {m: [] for m in scenario.methods}
    for run_index, seed in enumerate(seeds):
        series = scenario_run_series(scenario, seed)
        scores, labels = method_scores(
            series, scenario.train_len, scenario.methods, scenario.detector_config
        )
        for method, s in scores.items():
            points[method].append(max_f1(s, labels))
            if curve_sink is not None:
                curve_sink(method, run_index, pr_curve(s, labels))
    return BenchmarkReport(
        scenario=scenario.name,
        n_runs=scenario.n_runs,
        seeds=seeds,
        methods={method: _summary(pts) for method, pts in points.items()},
    )


def _summary(points: list[PrCurvePoint]) -> MethodSummary:
    """Mean best-F1 point over a method's runs, with the runs themselves."""
    return MethodSummary(
        mean_f1=float(np.mean([p.f1 for p in points])),
        mean_precision=float(np.mean([p.precision for p in points])),
        mean_recall=float(np.mean([p.recall for p in points])),
        per_run=tuple(points),
    )


def run_labeled_series(series: TimeSeries, train_len: int = 100,
                       methods=DEFAULT_METHODS,
                       detector_config: dict | None = None,
                       name: str = "labeled-series",
                       curve_sink=None) -> BenchmarkReport:
    """Single-run benchmark over a user-supplied labelled series."""
    scores, labels = method_scores(series, train_len, methods, detector_config)
    methods_summary = {}
    for method, s in scores.items():
        point = max_f1(s, labels)
        if curve_sink is not None:
            curve_sink(method, 0, pr_curve(s, labels))
        methods_summary[method] = _summary([point])
    return BenchmarkReport(scenario=name, n_runs=1, seeds=(), methods=methods_summary)


def write_report(report: BenchmarkReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(report), fh, indent=2)
        fh.write("\n")
