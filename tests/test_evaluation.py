"""Evaluation harness tests: precision/recall machinery, scenario running,
and report serialization."""

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from rpe.errors import NoPositives
from rpe.evaluation import (
    DEFAULT_METHODS,
    TABLE_SCENARIOS,
    BenchmarkReport,
    PrCurvePoint,
    Scenario,
    max_f1,
    method_scores,
    pr_curve,
    run_scenario,
    scenario_run_series,
    score_runs,
    write_report,
)
from rpe.trajectory import read_csv

DATA = Path(__file__).resolve().parent.parent / "data"


class TestMaxF1:
    def test_four_point_example(self):
        # Threshold 0.2 predicts {0.9, 0.2}: one true positive of one
        # positive (recall 1), one false alarm (precision 1/2).
        point = max_f1([0.9, 0.2, 0.15, 0.1], [False, True, False, False])
        assert point.threshold == 0.2
        assert point.precision == 0.5
        assert point.recall == 1.0
        assert point.f1 == pytest.approx(2.0 / 3.0)

    def test_perfect_separation(self):
        point = max_f1([0.9, 0.8, 0.1], [True, True, False])
        assert point.f1 == 1.0
        assert point.threshold == 0.8

    def test_f1_tie_breaks_toward_precision(self):
        # Thresholds 0.9 and 0.6 both give F1 = 2/3; the high-precision
        # operating point wins.
        point = max_f1([0.9, 0.8, 0.7, 0.6], [True, False, False, True])
        assert point.f1 == pytest.approx(2.0 / 3.0)
        assert point.threshold == 0.9
        assert point.precision == 1.0
        assert point.recall == 0.5

    def test_all_equal_scores_collapse_to_one_threshold(self):
        point = max_f1([0.5, 0.5, 0.5], [True, False, False])
        assert point.threshold == 0.5
        assert point.precision == pytest.approx(1.0 / 3.0)
        assert point.recall == 1.0
        assert point.f1 == 0.5

    def test_no_positive_labels(self):
        with pytest.raises(NoPositives):
            max_f1([0.5, 0.4], [False, False])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            max_f1([0.5, 0.4], [True])


class TestPrCurve:
    def test_one_point_per_distinct_score(self):
        curve = pr_curve([0.9, 0.9, 0.5, 0.1], [True, False, True, False])
        assert len(curve) == 3  # 0.9, 0.5, 0.1
        assert [p.threshold for p in curve] == [0.9, 0.5, 0.1]

    def test_recall_is_monotone_as_threshold_drops(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(size=60)
        labels = rng.uniform(size=60) < 0.2
        labels[0] = True
        curve = pr_curve(scores, labels)
        recalls = [p.recall for p in curve]
        assert all(a <= b for a, b in zip(recalls, recalls[1:]))
        assert recalls[-1] == 1.0  # everything predicted positive

    def test_max_f1_lies_on_the_curve(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(size=40)
        labels = rng.uniform(size=40) < 0.3
        labels[:2] = True
        best = max_f1(scores, labels)
        curve_f1 = [p.f1 for p in pr_curve(scores, labels)]
        assert best.f1 == pytest.approx(max(curve_f1))


class TestScenario:
    def test_table_scenarios_cover_the_four_regimes(self):
        assert set(TABLE_SCENARIOS) == {"table1", "table2", "table3", "table4"}
        assert TABLE_SCENARIOS["table1"].amplitude_factor == 1.0
        assert TABLE_SCENARIOS["table2"].amplitude_factor == 0.5
        assert TABLE_SCENARIOS["table3"].run_length == 2
        assert TABLE_SCENARIOS["table4"].run_length == 4

    def test_run_series_is_labelled_and_prefix_protected(self):
        sc = Scenario(name="x", total_len=300, train_len=100)
        series = scenario_run_series(sc, seed=7)
        assert len(series) == 300
        assert series.labels is not None
        assert not series.labels[:100].any()
        assert series.labels[100:].sum() == round(0.04 * 300)

    def test_zero_anomaly_scenario_raises_no_positives(self):
        sc = Scenario(
            name="none", anomaly_fraction=0.0, n_runs=1,
            methods=("iid",), total_len=150, train_len=100,
        )
        series = scenario_run_series(sc, seed=1)
        assert not series.labels.any()
        with pytest.raises(NoPositives):
            run_scenario(sc)


class TestMethodScores:
    def test_scores_cover_the_post_training_region(self):
        sc = Scenario(name="x", total_len=220, train_len=100)
        series = scenario_run_series(sc, seed=3)
        scores, labels = method_scores(series, 100, methods=("iid", "ar"))
        assert set(scores) == {"iid", "ar"}
        assert all(v.shape == (120,) for v in scores.values())
        assert labels.shape == (120,)

    def test_bad_split_rejected(self):
        sc = Scenario(name="x", total_len=200, train_len=100)
        series = scenario_run_series(sc, seed=3)
        with pytest.raises(ValueError):
            method_scores(series, 0)
        with pytest.raises(ValueError):
            method_scores(series, 200)

    def test_max_f1_of_method_scores_gives_best_points(self):
        sc = Scenario(name="x", total_len=220, train_len=100)
        series = scenario_run_series(sc, seed=3)
        scores, labels = method_scores(series, 100, methods=("iid",))
        points = {method: max_f1(s, labels) for method, s in scores.items()}
        assert isinstance(points["iid"], PrCurvePoint)
        assert 0.0 <= points["iid"].f1 <= 1.0


@pytest.fixture(scope="module")
def tiny_report():
    sc = Scenario(name="tiny", n_runs=3, methods=("iid", "ar"),
                  total_len=220, train_len=100)
    return run_scenario(sc)


class TestRunScenario:

    def test_report_shape(self, tiny_report):
        assert isinstance(tiny_report, BenchmarkReport)
        assert tiny_report.scenario == "tiny"
        assert tiny_report.n_runs == 3
        assert tiny_report.seeds == (101, 102, 103)
        assert set(tiny_report.methods) == {"iid", "ar"}

    def test_means_match_per_run_points(self, tiny_report):
        for summary in tiny_report.methods.values():
            assert len(summary.per_run) == 3
            assert summary.mean_f1 == pytest.approx(
                np.mean([p.f1 for p in summary.per_run]), abs=1e-12
            )
            assert summary.mean_precision == pytest.approx(
                np.mean([p.precision for p in summary.per_run]), abs=1e-12
            )
            assert summary.mean_recall == pytest.approx(
                np.mean([p.recall for p in summary.per_run]), abs=1e-12
            )

    def test_deterministic_across_calls(self):
        sc = Scenario(name="d", n_runs=2, methods=("iid",), total_len=180, train_len=100)
        a, b = run_scenario(sc), run_scenario(sc)
        assert asdict(a) == asdict(b)

    def test_curve_sink_sees_every_run(self):
        calls = []
        sc = Scenario(name="s", n_runs=2, methods=("iid",), total_len=180, train_len=100)
        run_scenario(sc, curve_sink=lambda m, i, c: calls.append((m, i, len(c))))
        assert [(m, i) for m, i, _ in calls] == [("iid", 0), ("iid", 1)]
        assert all(n > 0 for _, _, n in calls)


class TestRunLabeledSeries:
    def test_bundled_sample(self):
        series = read_csv(DATA / "sample_labeled.csv")
        report = score_runs("sample", [series], train_len=100)
        assert report.n_runs == 1
        assert report.seeds == ()
        assert set(report.methods) == set(DEFAULT_METHODS)
        for summary in report.methods.values():
            assert len(summary.per_run) == 1
            assert 0.0 <= summary.mean_f1 <= 1.0
        # The robust detector separates these labelled anomalies perfectly.
        assert report.methods["rpe"].mean_f1 == 1.0

    def test_no_runs_is_rejected(self):
        # An empty runs once gave n_runs 0 and a NaN mean F1, which
        # write_report turned into invalid JSON.
        with pytest.raises(ValueError, match="no run was scored"):
            score_runs("x", [], 100, ("iid",))

    def test_method_listed_twice_is_rejected_before_any_run(self):
        def runs():
            raise AssertionError("a run was drawn")
            yield

        with pytest.raises(ValueError, match="method 'iid' is listed twice"):
            score_runs("x", runs(), 100, ("iid", "ar", "iid"))


class TestReportSerialization:
    def test_round_trip_through_json(self, tmp_path):
        sc = Scenario(name="io", n_runs=2, methods=("iid",), total_len=180, train_len=100)
        report = run_scenario(sc)
        path = tmp_path / "report.json"
        write_report(report, path)
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(asdict(report)))
        assert loaded["scenario"] == "io"
        assert loaded["n_runs"] == 2
        assert list(loaded["methods"]) == ["iid"]
        point = loaded["methods"]["iid"]["per_run"][0]
        assert set(point) == {"threshold", "precision", "recall", "f1"}
