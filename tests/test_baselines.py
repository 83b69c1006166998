"""Baseline detector tests: plain-projection variant, Gaussian scorer,
autoregressive scorer, and the shared protocol make_detector builds."""

import copy
import dataclasses
import math

import numpy as np
import pytest

from rpe.baselines import (
    AR_RETRAIN_EVERY,
    AR_WINDOW,
    IID_BUFFER_LEN,
    ArDetector,
    IidDetector,
    _fit_ar_weights,
    make_detector,
    method_config,
)
from rpe.detector import DetectorConfig, DetectorState, ScoreRecord, step, train
from rpe.errors import NonFiniteValue, SeriesTooShort
from rpe.synth import SynthSpec, anomaly_scale, generate_clean
from rpe.trajectory import TimeSeries


def series(values) -> TimeSeries:
    return TimeSeries(values=np.asarray(values, dtype=float))


@pytest.fixture(scope="module")
def clean():
    return generate_clean(SynthSpec(length=300, seed=0))


class TestSpe:
    def test_is_plain_projection_run_of_shared_pipeline(self, clean):
        spe = make_detector("spe", series(clean.values[:150]))
        robust_zero = train(series(clean.values[:150]), DetectorConfig(n_s=0))
        a = [
            (r.residual, r.cdf_score, r.flagged)
            for r in (spe.step(v) for v in clean.values[150:].tolist())
        ]
        b = [
            (r.residual, r.cdf_score, r.flagged)
            for r in (step(robust_zero, v) for v in clean.values[150:].tolist())
        ]
        assert a == b  # bit-identical, not merely close

    def test_exclusion_budget_does_not_affect_plain_projection(self, clean):
        # spe replaces n_s by 0, so the configured budget never reaches the
        # projection or the rank cap; the runs coincide exactly.
        runs = []
        for n_s in (5, 9):
            det = make_detector("spe", series(clean.values[:150]), DetectorConfig(n_s=n_s))
            runs.append([(r.residual, r.flagged)
                         for r in (det.step(v) for v in clean.values[150:].tolist())])
        assert runs[0] == runs[1]

    def test_clean_training_window_scores_near_zero(self, clean):
        det = make_detector("spe", series(clean.values[:150]))
        rec = det.step(float(clean.values[150]))
        assert rec.abs_residual < 3.0  # same scale as the noise, not the signal

    def test_rank_cap_follows_the_zero_budget(self, clean):
        # rank_cap = min(10, M1 - n_s): where M1 - n_s < 10, spe may keep a
        # higher rank than the rpe config it was built from.
        config = DetectorConfig(M1=12, n_s=3)
        assert method_config("spe", config) == dataclasses.replace(config, n_s=0)
        det = make_detector("spe", series(clean.values[:150]), config)
        assert (det.config.n_s, det.config.rank_cap) == (0, 10)
        assert (config.n_s, config.rank_cap) == (3, 9)  # the caller's config is untouched


class TestIid:
    def test_buffer_keeps_most_recent_values(self, clean):
        det = IidDetector(series(clean.values[:150]))
        assert len(det.buffer) == IID_BUFFER_LEN
        np.testing.assert_array_equal(np.asarray(det.buffer), clean.values[50:150])

    def test_score_at_the_mean_is_zero(self, clean):
        det = IidDetector(series(clean.values[:150]))
        mean = float(np.asarray(det.buffer).mean())
        rec = copy.deepcopy(det).step(mean)
        assert rec.cdf_score == 0.0
        assert rec.residual == 0.0

    def test_score_matches_gaussian_two_sided_tail(self, clean):
        det = IidDetector(series(clean.values[:150]))
        buf = np.asarray(det.buffer)
        mean, std = float(buf.mean()), float(buf.std())  # population std
        got = copy.deepcopy(det).step(mean + 1.96 * std).cdf_score
        assert got == pytest.approx(math.erf(1.96 / math.sqrt(2.0)), abs=1e-12)
        assert got == pytest.approx(0.9500042097, abs=1e-9)

    def test_degenerate_constant_buffer(self):
        det = IidDetector(series(np.full(50, 2.0)))
        assert copy.deepcopy(det).step(2.0).cdf_score == 0.0
        assert copy.deepcopy(det).step(2.5).cdf_score == 1.0

    def test_value_enters_buffer_after_scoring(self):
        det = IidDetector(series(np.arange(10.0)))
        n = len(det.buffer)
        det.step(100.0)
        assert len(det.buffer) == n + 1
        assert det.buffer[-1] == 100.0

    def test_empty_training_rejected(self):
        with pytest.raises(SeriesTooShort):
            IidDetector(np.array([], dtype=float))  # raw arrays are accepted too


def ar_residuals(det: ArDetector, values) -> list[float]:
    return [det.step(float(v)).residual for v in values]


class TestAr:
    def test_linear_trend_is_predicted_exactly(self):
        ramp = np.arange(260, dtype=float) * 0.5 + 3.0
        det = ArDetector(series(ramp[:200]))
        residuals = ar_residuals(det, ramp[200:])
        assert max(abs(r) for r in residuals) < 1e-6

    def test_constant_series(self):
        det = ArDetector(series(np.full(100, 4.0)))
        assert abs(det.step(4.0).residual) < 1e-6

    def test_weights_refit_on_the_history_every_retrain_steps(self, clean):
        det = ArDetector(series(clean.values[:150]))
        trained = det.weights.copy()
        assert trained.shape == (AR_WINDOW,)
        stream = clean.values[150:150 + AR_RETRAIN_EVERY].tolist()
        for v in stream[:-1]:
            det.step(v)
        np.testing.assert_array_equal(det.weights, trained)
        det.step(stream[-1])
        assert det.counter == AR_RETRAIN_EVERY
        np.testing.assert_array_equal(
            det.weights, _fit_ar_weights(clean.values[:150 + AR_RETRAIN_EVERY]))

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            ArDetector(series(np.ones(2 * AR_WINDOW - 1)))

    def test_spike_residual_smears_into_following_predictions(self):
        # The corrupted value stays in the regression context for a full
        # window, so residuals after the spike sit well above the clean
        # noise floor — the weakness the projection detector avoids by
        # replacing flagged values.
        base = generate_clean(SynthSpec(length=300, seed=3))
        f = anomaly_scale(base.values[:150])
        spiked = ArDetector(series(base.values[:150]))
        stream = base.values[150:].copy()
        stream[0] += f
        spiked_resid = ar_residuals(spiked, stream)
        reference = ArDetector(series(base.values[:150]))
        clean_resid = ar_residuals(reference, base.values[150:])
        noise_floor = float(np.median(np.abs(clean_resid)))
        post = np.abs(spiked_resid[1:31])
        assert abs(spiked_resid[0]) > 0.8 * f  # the spike itself is seen
        assert post.max() > 5.0 * noise_floor  # and it echoes afterwards
        assert int((post > 5.0 * noise_floor).sum()) >= 10


class TestAdapters:
    """make_detector builds every method trained; step(value) scores."""

    @pytest.mark.parametrize("method", ["rpe", "spe", "iid", "ar"])
    def test_shared_interface(self, method, clean):
        det = make_detector(method, series(clean.values[:150]))
        rec = det.step(float(clean.values[150]))
        assert isinstance(rec, ScoreRecord)
        assert rec.index == 150
        assert 0.0 <= rec.cdf_score <= 1.0
        assert isinstance(rec.flagged, bool)
        nxt = det.step(float(clean.values[151]))
        assert nxt.index == 151

    def test_factory_classes(self, clean):
        values = clean.values[:150]
        rpe, spe = make_detector("rpe", values), make_detector("spe", values)
        assert isinstance(rpe, DetectorState) and isinstance(spe, DetectorState)
        assert (rpe.config.n_s, spe.config.n_s) == (5, 0)
        assert isinstance(make_detector("iid", values), IidDetector)
        assert isinstance(make_detector("ar", values), ArDetector)
        # An unknown method is rejected before training would reject the NaN.
        with pytest.raises(ValueError, match="unknown method 'median'"):
            make_detector("median", [np.nan])

    def test_threshold_passes_through_config(self, clean):
        cfg = DetectorConfig(cdf_threshold=0.8)
        assert make_detector("iid", clean.values[:150], cfg).threshold == 0.8
        assert make_detector("ar", clean.values[:150], cfg).threshold == 0.8

    def test_rpe_and_spe_adapters_disagree_under_corruption(self, clean):
        # Same model pipeline, different projection: feed a spike and compare
        # the residual four steps later, inside the spike's window span.
        f = anomaly_scale(clean.values[:150])
        outputs = {}
        for method in ("rpe", "spe"):
            det = make_detector(method, series(clean.values[:150]))
            det.step(float(clean.values[150]) + 5.0 * f)
            for k in range(1, 5):
                rec = det.step(float(clean.values[150 + k]))
            outputs[method] = rec.abs_residual
        assert outputs["spe"] > outputs["rpe"]


def reference_state(det) -> tuple:
    """Everything an iid or ar detector carries from one step to the next."""
    if isinstance(det, IidDetector):
        return det._index, list(det.buffer)
    return (det._index, det.counter, det.weights.tolist(), list(det.history),
            det.memory.values())


class TestNonFiniteInput:
    """A NaN or infinity is rejected with NonFiniteValue before any state
    changes, so one bad value cannot poison a baseline's later scores."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("method", ["iid", "ar"])
    def test_step_rejects_before_any_change(self, method, bad, clean):
        det = make_detector(method, clean.values[:150])
        before = reference_state(det)
        with pytest.raises(NonFiniteValue) as info:
            det.step(bad)
        assert info.value.index == 150
        assert str(info.value) == "non-finite stream value at index 150"
        assert reference_state(det) == before
        # The rejected value leaves no trace in the next 150 scores, which
        # span an ar refit.
        fresh = make_detector(method, clean.values[:150])
        for v in clean.values[150:].tolist():
            assert det.step(v) == fresh.step(v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("method", ["rpe", "spe", "iid", "ar"])
    def test_fit_rejects_a_non_finite_training_value(self, method, bad, clean):
        values = clean.values[:150].copy()
        values[40] = bad
        with pytest.raises(NonFiniteValue) as info:
            make_detector(method, values)
        assert info.value.index == 40
