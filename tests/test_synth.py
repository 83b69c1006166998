"""Synthetic data tests: the cosine-mixture generator and seeded injection of
labelled constant-offset anomaly runs."""

import numpy as np
import pytest

from rpe.errors import CannotPlace
from rpe.synth import (
    ANOMALY_SEED_OFFSET,
    AnomalySpec,
    SynthSpec,
    anomaly_scale,
    generate_clean,
    inject_anomalies,
)
from rpe.trajectory import build_trajectory


class TestSynthSpec:
    def test_defaults(self):
        spec = SynthSpec(length=100)
        assert spec.weights == (2.0, 1.6, 1.2, 0.8)
        assert len(spec.period_ranges) == 4
        assert spec.noise_sigma == 0.1

    @pytest.mark.parametrize(
        "kw",
        [
            {"length": 0},
            {"length": 100, "noise_sigma": -0.1},
            {"length": 100, "weights": (1.0,)},  # misaligned with period ranges
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            SynthSpec(**kw)


class TestGenerateClean:
    def test_seeded_determinism(self):
        a = generate_clean(SynthSpec(length=500, seed=42))
        b = generate_clean(SynthSpec(length=500, seed=42))
        np.testing.assert_array_equal(a.values, b.values)
        c = generate_clean(SynthSpec(length=500, seed=43))
        assert not np.array_equal(a.values, c.values)

    def test_amplitude_bounded_by_weight_sum(self):
        t = generate_clean(SynthSpec(length=1000, seed=0, noise_sigma=0.0))
        assert np.abs(t.values).max() <= 5.6  # sum of the component weights

    def test_labels_start_all_clean(self):
        t = generate_clean(SynthSpec(length=64, seed=3))
        assert t.labels is not None
        assert not t.labels.any()

    def test_degenerate_ranges_give_known_trajectory_rank(self):
        # Pinning each period range to a point makes the waveform a sum of
        # four cosines at fixed frequencies; each contributes a 2-plane to
        # the window space, so the trajectory matrix has rank 8.
        spec = SynthSpec(
            length=300,
            seed=7,
            noise_sigma=0.0,
            period_ranges=((60.0, 60.0), (30.0, 30.0), (15.0, 15.0), (4.0, 4.0)),
        )
        x = build_trajectory(generate_clean(spec), 30)
        s = np.linalg.svd(x, compute_uv=False)
        assert int((s > 1e-8 * s[0]).sum()) == 8

    def test_noise_changes_with_sigma(self):
        quiet = generate_clean(SynthSpec(length=400, seed=5, noise_sigma=0.0))
        noisy = generate_clean(SynthSpec(length=400, seed=5, noise_sigma=0.1))
        diff = noisy.values - quiet.values
        assert 0.05 < diff.std() < 0.2  # the added noise, same waveform


class TestAnomalyScale:
    def test_matches_independent_interpolated_quantiles(self):
        values = generate_clean(SynthSpec(length=157, seed=11)).values
        srt = np.sort(values)

        def quantile(q: float) -> float:
            # Linear interpolation between order statistics.
            h = (srt.size - 1) * q
            lo = int(np.floor(h))
            hi = min(lo + 1, srt.size - 1)
            return float(srt[lo] + (h - lo) * (srt[hi] - srt[lo]))

        assert anomaly_scale(values) == pytest.approx(
            quantile(0.9) - quantile(0.1), abs=1e-12
        )

    def test_constant_series_has_zero_scale(self):
        assert anomaly_scale(np.full(50, 3.0)) == 0.0


class TestAnomalySpec:
    @pytest.mark.parametrize(
        "kw",
        [
            {"fraction": 0.0},
            {"fraction": 1.0},
            {"run_length": 0},
            {"protect_prefix": -1},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            AnomalySpec(**kw)

    def test_seed_offset_is_large_and_odd(self):
        # Guards against accidental reuse of the waveform stream when the
        # same base seed parameterizes both generator and injector.
        assert ANOMALY_SEED_OFFSET == 100_003


class TestInjectAnomalies:
    def test_stamp_budget_rounds_from_fraction(self):
        base = generate_clean(SynthSpec(length=200, seed=1))
        out = inject_anomalies(base, AnomalySpec(fraction=0.005, seed=9))
        assert int(out.labels.sum()) == 1  # round(0.005 * 200)

    def test_runs_partition_the_budget(self):
        base = generate_clean(SynthSpec(length=200, seed=1))
        out = inject_anomalies(base, AnomalySpec(fraction=0.04, run_length=2, seed=9))
        labels = out.labels.astype(int)
        assert labels.sum() == 8  # round(0.04 * 200)
        starts = np.diff(np.concatenate([[0], labels])) == 1
        assert int(starts.sum()) == 4  # 8 stamps / run length 2

    def test_offset_magnitude_is_the_decile_spread(self):
        base = generate_clean(SynthSpec(length=200, seed=1))
        f = anomaly_scale(base.values)
        out = inject_anomalies(
            base, AnomalySpec(fraction=0.04, amplitude_factor=1.0, run_length=2, seed=9)
        )
        delta = np.abs(out.values - base.values)
        assert np.abs(delta[out.labels] - f).max() < 1e-12
        assert delta[~out.labels].max() == 0.0

    def test_amplitude_factor_scales_offsets(self):
        base = generate_clean(SynthSpec(length=300, seed=2))
        f = anomaly_scale(base.values)
        out = inject_anomalies(base, AnomalySpec(fraction=0.02, amplitude_factor=3.0, seed=4))
        delta = np.abs(out.values - base.values)
        assert np.abs(delta[out.labels] - 3.0 * f).max() < 1e-12

    def test_constant_offset_within_each_run(self):
        base = generate_clean(SynthSpec(length=400, seed=6))
        out = inject_anomalies(base, AnomalySpec(fraction=0.05, run_length=4, seed=8))
        delta = out.values - base.values
        labels = out.labels.astype(int)
        starts = np.flatnonzero(np.diff(np.concatenate([[0], labels])) == 1)
        for start in starts:
            run = delta[start : start + 4]
            assert np.all(run == run[0])  # same signed offset across the run

    def test_runs_do_not_overlap_or_touch(self):
        base = generate_clean(SynthSpec(length=500, seed=3))
        out = inject_anomalies(base, AnomalySpec(fraction=0.1, run_length=3, seed=5))
        labels = out.labels.astype(int)
        starts = np.flatnonzero(np.diff(np.concatenate([[0], labels])) == 1)
        assert np.all(np.diff(starts) >= 3)

    def test_protected_prefix_stays_clean(self):
        base = generate_clean(SynthSpec(length=300, seed=4))
        out = inject_anomalies(base, AnomalySpec(fraction=0.1, seed=2, protect_prefix=150))
        assert not out.labels[:150].any()
        np.testing.assert_array_equal(out.values[:150], base.values[:150])

    def test_seeded_determinism(self):
        base = generate_clean(SynthSpec(length=300, seed=4))
        a = inject_anomalies(base, AnomalySpec(fraction=0.04, seed=77))
        b = inject_anomalies(base, AnomalySpec(fraction=0.04, seed=77))
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_input_series_is_not_mutated(self):
        base = generate_clean(SynthSpec(length=300, seed=4))
        snapshot = base.values.copy()
        inject_anomalies(base, AnomalySpec(fraction=0.04, seed=1))
        np.testing.assert_array_equal(base.values, snapshot)

    def test_zero_budget_rejected(self):
        base = generate_clean(SynthSpec(length=50, seed=1))
        with pytest.raises(CannotPlace):
            inject_anomalies(base, AnomalySpec(fraction=0.005, seed=1, protect_prefix=0))

    def test_no_room_outside_prefix_rejected(self):
        base = generate_clean(SynthSpec(length=120, seed=1))
        with pytest.raises(CannotPlace):
            inject_anomalies(base, AnomalySpec(fraction=0.1, seed=1, protect_prefix=120))

    def test_too_many_runs_to_place_rejected(self):
        base = generate_clean(SynthSpec(length=110, seed=1))
        # Budget 11 stamps in 11 runs, but only 10 start slots exist outside
        # the 100-sample protected prefix.
        with pytest.raises(CannotPlace):
            inject_anomalies(base, AnomalySpec(fraction=0.1, seed=1, protect_prefix=100))
