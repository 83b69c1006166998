"""Streaming detector tests: configuration, training, the residual memory,
single-step scoring, value replacement, series scoring, and the module
functions that every caller looks up when it calls them."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from scipy.fft import dct

from rpe import cli, detector, projection
from rpe.detector import (
    DetectorConfig,
    DetectorState,
    ResidualMemory,
    ScoreRecord,
    step,
    train,
    warm_start,
)
from rpe.errors import (
    BadBudget,
    NonFiniteValue,
    RankDeficient,
    SeriesTooShort,
)
from rpe.evaluation import TABLE_SCENARIOS, method_scores, scenario_run_series
from rpe.subspace import SubspaceModel
from rpe.synth import (
    AnomalySpec,
    SynthSpec,
    anomaly_scale,
    generate_clean,
    inject_anomalies,
)
from rpe.trajectory import TimeSeries, write_csv


def series(values) -> TimeSeries:
    return TimeSeries(values=np.asarray(values, dtype=float))


def dct_frame(m1: int, cols) -> np.ndarray:
    return dct(np.eye(m1), norm="ortho", axis=0)[:, list(cols)]


class TestDetectorConfig:
    def test_defaults(self):
        cfg = DetectorConfig()
        assert cfg.M1 == 30
        assert cfg.n_s == 5
        assert cfg.cdf_threshold == 0.95
        assert cfg.retrain_every == 100
        assert cfg.t_max == 300
        assert cfg.replace_anomalous_values is True

    def test_rank_cap_tracks_budget(self):
        assert DetectorConfig().rank_cap == 10
        assert DetectorConfig(M1=12, n_s=5).rank_cap == 7
        assert DetectorConfig(M1=12, n_s=0).rank_cap == 10

    @pytest.mark.parametrize(
        "kw",
        [
            {"M1": 1},
            {"n_s": -1},
            {"M1": 10, "n_s": 10},
            {"cdf_threshold": 0.0},
            {"cdf_threshold": 1.0},
            {"retrain_every": 0},
            {"M1": 30, "t_max": 59},
            {"estimator": "nope"},
            {"memory_cap": 0},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            DetectorConfig(**kw)

    @pytest.mark.parametrize("field, value", [
        ("M1", 30.5), ("n_s", 2.0), ("retrain_every", 2.5), ("t_max", 300.5),
        ("memory_cap", 2.5), ("M1", "30"),
    ])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            DetectorConfig(**{field: value})

    def test_numpy_integers_are_counts(self):
        cfg = DetectorConfig(M1=np.int64(20), n_s=np.int32(3), t_max=np.int64(60),
                             memory_cap=np.int16(50))
        assert cfg.rank_cap == 10

    @pytest.mark.parametrize(
        "field", ["M1", "n_s", "retrain_every", "t_max", "memory_cap"]
    )
    def test_a_bool_is_not_a_count(self, field):
        # bool is an Integral, so memory_cap=True would read as a cap of 1.
        with pytest.raises(ValueError, match=field):
            DetectorConfig(**{field: True})

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_replacement_switch_must_be_a_bool(self, value):
        # "false" is truthy, so it would switch replacement on.
        with pytest.raises(ValueError, match="replace_anomalous_values"):
            DetectorConfig(replace_anomalous_values=value)

    def test_fields_are_frozen(self):
        # A state checks its model against the config once, so a field set
        # afterwards (n_s = 25 on a rank-10 model) would fail deep in a step.
        cfg = DetectorConfig()
        for field in dataclasses.fields(cfg):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, field.name, getattr(cfg, field.name))
        assert dataclasses.replace(cfg, n_s=0).n_s == 0


class TestResidualMemory:
    def test_cdf_is_strictly_less_fraction(self):
        m = ResidualMemory()
        for v in (1.0, 2.0, 3.0):
            m.append(v)
        assert m.cdf(2.0) == pytest.approx(1.0 / 3.0)  # ties not counted
        assert m.cdf(0.5) == 0.0
        assert m.cdf(99.0) == 1.0
        assert m.cdf(1.0) == 0.0

    def test_empty_memory_scores_zero(self):
        assert ResidualMemory().cdf(1.0) == 0.0

    def test_cdf_monotone_in_value(self):
        m = ResidualMemory()
        rng = np.random.default_rng(7)
        for v in rng.exponential(size=50):
            m.append(float(v))
        probes = np.linspace(0.0, 5.0, 200)
        scores = [m.cdf(p) for p in probes]
        assert all(a <= b for a, b in zip(scores, scores[1:]))

    def test_cap_evicts_oldest(self):
        m = ResidualMemory(cap=3)
        for v in (5.0, 1.0, 4.0, 2.0):
            m.append(v)
        assert m.values() == (1.0, 4.0, 2.0)
        assert m.cdf(4.5) == 1.0  # the evicted 5.0 no longer counts
        assert len(m) == 3

    @pytest.mark.parametrize("cap", [None, 1500])
    def test_ranks_stay_exact_across_merges(self, cap):
        # 3 000 tied values, then 3 000 distinct ones, pass the merge size
        # several times. With the cap, the tied values are evicted after they
        # were merged and while no equal value is pending, ties among them.
        rng = np.random.default_rng(4)
        tied = rng.choice([0.0, 0.5, 1.0, 2.0, np.inf, np.nan], 3000)
        values = np.concatenate([tied, rng.exponential(size=3000)]).tolist()
        m = ResidualMemory(cap=cap)
        for n, v in enumerate(values, start=1):
            m.append(v)
            if n % 250 == 0:
                kept = np.array(values[:n][-cap:] if cap else values[:n])
                assert len(m) == kept.size
                for q in (-1.0, 0.0, 0.5, 0.75, 2.0, 3.0, np.inf, np.nan):
                    assert m.cdf(q) == np.count_nonzero(kept < q) / kept.size


class TestTrain:
    def test_synthetic_defaults(self):
        st = train(generate_clean(SynthSpec(length=100, seed=0)))
        # With the default noise level every direction up to the cap clears
        # the rank threshold, so training lands on the cap.
        assert st.model.r == 10
        assert len(st.memory) == 71  # one entry per complete window
        assert len(st.history) == 100
        assert st.samples_seen == 100

    def test_long_history_is_truncated(self):
        st = train(generate_clean(SynthSpec(length=500, seed=0)))
        assert len(st.history) == 300  # t_max
        assert len(st.memory) == 271
        assert st.samples_seen == 500

    def test_constant_series_trains_clean(self):
        st = train(series(np.full(100, 3.0)))
        assert st.model.r == 1
        assert max(st.memory.values()) < 1e-10

    def test_too_short(self):
        with pytest.raises(SeriesTooShort, match="need at least 60 samples for window_size 30"):
            train(series(np.ones(59)))

    def test_warm_start_too_short(self):
        model, pattern = shift_invariant_model()
        with pytest.raises(SeriesTooShort, match="warm start needs at least 30 samples, got 29"):
            warm_start(model, series(pattern[:29]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_training_value_is_typed(self, bad):
        # A plain array is checked as a TimeSeries is, before any fit.
        values = generate_clean(SynthSpec(length=100, seed=0)).values.copy()
        values[37] = bad
        with pytest.raises(NonFiniteValue) as trained:
            train(values)
        model, pattern = shift_invariant_model()
        warm = pattern[:80].copy()
        warm[37] = bad
        with pytest.raises(NonFiniteValue) as warmed:
            warm_start(model, warm)
        assert trained.value.index == warmed.value.index == 37


def shift_invariant_model() -> tuple[SubspaceModel, np.ndarray]:
    """A 4-dimensional basis spanning two cosines at every phase, plus a
    400-sample series inside that span (so residuals are numerically zero)."""
    w1, w2 = 2 * np.pi / 20, 2 * np.pi / 7
    i = np.arange(30)
    frame = np.column_stack(
        [np.cos(w1 * i), np.sin(w1 * i), np.cos(w2 * i), np.sin(w2 * i)]
    )
    q, r = np.linalg.qr(frame)
    q = q * np.sign(np.diag(r))
    model = SubspaceModel(U=q, r=4, M1=30, singular_values=np.ones(4))
    j = np.arange(400)
    pattern = 1.3 * np.cos(w1 * j + 0.4) + 0.7 * np.cos(w2 * j + 1.9)
    return model, pattern


class TestStep:
    def test_clean_value_passes_through(self):
        model, pattern = shift_invariant_model()
        st = warm_start(model, series(pattern[:80]))
        assert len(st.memory) == 51
        assert max(st.memory.values()) < 1e-12
        rec = step(st, float(pattern[80]))
        assert rec.index == 80
        assert rec.abs_residual < 1e-12
        assert not rec.flagged
        assert rec.replaced_value is None
        assert rec.cdf_score <= 0.95

    def test_offset_is_recovered_exactly(self):
        # The in-span pattern projects to itself, so a constant offset on one
        # value survives as the residual to machine precision.
        model, pattern = shift_invariant_model()
        st = warm_start(model, series(pattern[:80]))
        rec = step(st, float(pattern[80]) + 10.0)
        assert abs(rec.abs_residual - 10.0) < 1e-9
        assert rec.flagged
        assert rec.cdf_score == 1.0
        assert rec.replaced_value is not None
        assert abs(rec.replaced_value - pattern[80]) < 1e-9
        assert st.history[-1] == rec.replaced_value

    def test_replacement_can_be_disabled(self):
        model, pattern = shift_invariant_model()
        cfg = DetectorConfig(replace_anomalous_values=False)
        st = warm_start(model, series(pattern[:80]), config=cfg)
        raw = float(pattern[80]) + 10.0
        rec = step(st, raw)
        assert rec.flagged
        assert rec.replaced_value is None
        assert st.history[-1] == raw

    def test_cdf_uses_memory_before_insert(self):
        model, pattern = shift_invariant_model()
        st = warm_start(model, series(pattern[:80]))
        n_before = len(st.memory)
        rec = step(st, float(pattern[80]) + 10.0)
        # Scored against the 51 seeded residuals, then remembered.
        assert len(st.memory) == n_before + 1
        assert rec.cdf_score == 1.0
        assert max(st.memory.values()) == rec.abs_residual

    def test_periodic_retrain_refits_model(self):
        clean = generate_clean(SynthSpec(length=300, seed=1))
        st = train(series(clean.values[:150]))
        model_before = st.model
        for v in clean.values[150:249]:
            step(st, float(v))
        assert st.model is model_before  # counter 99: not yet
        step(st, float(clean.values[249]))
        assert st.model is not model_before  # counter 100, history 250 < 300
        gram = st.model.U.T @ st.model.U
        assert np.abs(gram - np.eye(st.model.r)).max() < 1e-8

    def test_retrain_stops_once_history_is_long(self):
        clean = generate_clean(SynthSpec(length=600, seed=1))
        st = train(series(clean.values[:300]))  # the buffer is already full
        model_before = st.model
        for v in clean.values[300:400]:
            step(st, float(v))
        assert st.model is model_before

    def test_refits_until_the_history_buffer_is_full(self):
        # Every retrain_every steps a step refits while the history buffer
        # holds fewer than t_max values, and never once it is full.
        clean = generate_clean(SynthSpec(length=2600, seed=1))
        cfg = DetectorConfig()
        # A default train on t_max samples fills the buffer: no step ever
        # refits, and the buffer stays at t_max values.
        st = train(series(clean.values[:300]), config=cfg)
        model = st.model
        for v in clean.values[300:2300]:
            step(st, float(v))
            assert st.model is model
            assert len(st.history) <= cfg.t_max
        # A warm start on M1 samples (the CLI cold start) keeps 30 values:
        # refits at steps 100 and 200 (130 and 230 < 300), none from 300 on.
        st = warm_start(model, series(clean.values[:cfg.M1]), config=cfg)
        models = [st.model]
        for v in clean.values[cfg.M1:cfg.M1 + 1000]:
            step(st, float(v))
            if st.model is not models[-1]:
                models.append(st.model)
                assert st.counter in (100, 200)
        assert len(models) == 3
        assert models[0] is model
        # A training of t_max = 200 values fills the buffer: no refit.
        st = train(series(clean.values[:200]), config=DetectorConfig(t_max=200))
        model = st.model
        for v in clean.values[200:500]:
            step(st, float(v))
        assert st.model is model
        # The same with t_max = 100, trained on 100 values.
        st = train(series(clean.values[:100]), config=DetectorConfig(t_max=100))
        model = st.model
        for v in clean.values[100:1100]:
            step(st, float(v))
        assert st.model is model
        # t_max = 600 trained on 300: refits at steps 100 and 200 (400 and
        # 500 values kept), none from 300 on, when the buffer is full.
        st = train(series(clean.values[:300]), config=DetectorConfig(t_max=600))
        refit_at = []
        for v in clean.values[300:1300]:
            model = st.model
            step(st, float(v))
            if st.model is not model:
                refit_at.append(st.counter)
        assert refit_at == [100, 200]


def snapshot(st: DetectorState) -> tuple:
    return (list(st.history), st.counter, st.samples_seen, st.memory.values(), st.model)


class TestProjectionCore:
    """A step projects with robust_coefficients, which checks nothing, so the
    model is checked against the config when a state gets it, and every
    score must equal the one robust_projection gives for the same window."""

    def test_warm_start_rejects_a_model_over_budget(self):
        model, pattern = shift_invariant_model()  # rank 4, M1 = 30
        with pytest.raises(BadBudget):
            warm_start(model, series(pattern[:80]), config=DetectorConfig(n_s=27))

    def test_a_hand_built_state_checks_its_model(self):
        # A window of the wrong length would reach the core unchecked.
        model, pattern = shift_invariant_model()
        with pytest.raises(ValueError, match="does not match config M1"):
            warm_start(model, series(pattern[:80]), config=DetectorConfig(M1=20))
        with pytest.raises(SeriesTooShort):
            DetectorState(config=DetectorConfig(), model=model, memory=ResidualMemory(),
                          history=pattern[:28])
        DetectorState(config=DetectorConfig(), model=model, memory=ResidualMemory(),
                      history=pattern[:29])

    @pytest.mark.parametrize("n_s, floor", [(5, None), (0, None), (5, np.inf)],
                             ids=["rpe", "spe", "qr"])
    def test_residuals_match_robust_projection_bit_for_bit(self, monkeypatch, n_s, floor):
        # 400 steps with 2 % point anomalies and refits every 50 steps; "qr"
        # sends every window to the QR solve of the kept rows.
        if floor is not None:
            monkeypatch.setattr(projection, "DOWNDATE_FLOOR", floor)
        clean = generate_clean(SynthSpec(length=700, seed=3))
        spec = AnomalySpec(fraction=0.02, seed=3, protect_prefix=300)
        values = inject_anomalies(clean, spec).values
        cfg = DetectorConfig(n_s=n_s, retrain_every=50, t_max=700)
        st = train(series(values[:300]), config=cfg)
        for value in values[300:].tolist():
            U = st.model.U
            window = np.append(st.history[1 - cfg.M1:], value)
            expected = value - float(
                projection.robust_projection(U, window, n_s).a_hat @ U[-1, :])
            assert step(st, value).residual == expected

    def test_non_finite_kept_row_solve_blames_the_same_row(self):
        # The overflowing window of test_projection: robust_projection, the
        # core and step all raise NonFiniteValue for row 7, and the step
        # commits nothing.
        u = dct_frame(10, (1, 3))
        x = np.where(np.arange(10) % 2, -1.7e308, 1.7e308)
        x[7] = -1.75e308
        st = DetectorState(
            config=DetectorConfig(M1=10, n_s=2, t_max=20),
            model=SubspaceModel(U=u, r=2, M1=10, singular_values=np.ones(2)),
            memory=ResidualMemory(),
            history=x[:-1],
        )
        before = snapshot(st)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteValue) as public:
                projection.robust_projection(u, x, 2)
            with pytest.raises(NonFiniteValue) as core:
                projection.robust_coefficients(u, x, 2)
            with pytest.raises(NonFiniteValue) as stepped:
                step(st, float(x[-1]))
        assert public.value.index == core.value.index == stepped.value.index == 7
        assert snapshot(st) == before

    def test_replay_and_steps_look_up_the_projection_by_module_name(self, monkeypatch):
        # A wrapper put on detector.robust_projection (as the benchmark's
        # per-layer tracing does) sees every projection of the replay and
        # of each step, and each call returns the core's coefficients.
        calls = []

        def counted(U, x, n_s):
            calls.append(n_s)
            return projection.robust_coefficients(U, x, n_s)

        monkeypatch.setattr(detector, "robust_projection", counted)
        model, pattern = shift_invariant_model()  # M1 = 30
        st = warm_start(model, series(pattern[:80]))
        assert calls == [5] * (80 - 30 + 1)
        step(st, float(pattern[80]))
        assert len(calls) == 80 - 30 + 2


class TestStepAtomicity:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_before_any_change(self, bad):
        model, pattern = shift_invariant_model()
        st = warm_start(model, series(pattern[:80]))
        before = snapshot(st)
        with pytest.raises(NonFiniteValue) as info:
            step(st, bad)
        assert info.value.index == 80
        assert snapshot(st) == before
        # The rejected value leaves no trace in the next score.
        fresh = warm_start(model, series(pattern[:80]))
        assert step(st, float(pattern[80])) == step(fresh, float(pattern[80]))

    def test_rank_deficient_window_leaves_state_unchanged(self):
        # The basis of test_rank_deficient_kept_rows: the window
        # [0, 5, -5, 0, 0] forces out the only rows that see the second
        # coordinate, so the projection raises before anything is committed.
        a = 1.0 / np.sqrt(2.0)
        u = np.array([[1.0, 0.0], [0.0, a], [0.0, a], [0.0, 0.0], [0.0, 0.0]])
        memory = ResidualMemory()
        for v in (0.1, 0.2, 0.3):
            memory.append(v)
        st = DetectorState(
            config=DetectorConfig(M1=5, n_s=2, t_max=10),
            model=SubspaceModel(U=u, r=2, M1=5, singular_values=np.ones(2)),
            memory=memory,
            history=[1.0, 2.0, 0.0, 5.0, -5.0, 0.0],
            counter=3,
            samples_seen=6,
        )
        before = snapshot(st)
        with pytest.raises(RankDeficient):
            step(st, 0.0)
        assert snapshot(st) == before

@pytest.fixture(scope="module")
def run():
    clean = generate_clean(SynthSpec(length=300, seed=0))
    f = anomaly_scale(clean.values[:150])
    stream = clean.values[150:].copy()
    stream[21] += 5.0 * f
    stream[26] -= 5.0 * f
    return clean, f, stream


class TestTwoAnomalyStream:
    """A frozen end-to-end example: two opposite-signed point anomalies five
    spreads tall, five samples apart, on a synthetic series continuation."""

    def score(self, clean, stream, **kw):
        st = train(series(clean.values[:150]), **kw)
        recs = [st.step(v) for v in stream.tolist()]
        return st, {r.index: r for r in recs}

    def test_both_anomalies_flagged_and_neighbours_clean(self, run):
        clean, f, stream = run
        _, by = self.score(clean, stream)
        assert by[171].flagged and by[176].flagged
        assert abs(by[171].abs_residual - 5.0 * f) < 0.2
        assert [i for i in range(172, 176) if by[i].flagged] == []

    def test_flag_isolation_after_replacement(self, run):
        # Replacement keeps later windows clean: residuals right after each
        # anomaly stay below 5% of the anomaly residual.
        clean, f, stream = run
        _, by = self.score(clean, stream)
        peak = by[171].abs_residual
        assert max(by[i].abs_residual for i in range(172, 176)) < 0.05 * peak
        assert max(by[i].abs_residual for i in range(177, 181)) < 0.05 * peak

    def test_replacement_hygiene(self, run):
        clean, f, stream = run
        st, by = self.score(clean, stream)
        assert by[171].replaced_value is not None
        assert by[176].replaced_value is not None
        # The value stored for each stamp: its reconstruction when replaced.
        stored = np.array([
            stream[i - 150] if by[i].replaced_value is None else by[i].replaced_value
            for i in range(150, 300)
        ])
        assert np.array_equal(st.history[-stored.size:], stored)
        # The stored history tracks the clean series, not the anomalous one.
        assert np.abs(stored - clean.values[150:]).max() < 0.2 * f
        assert {i for i, r in by.items() if r.replaced_value is not None} >= {171, 176}

    def test_simple_projection_smears_across_the_window(self, run):
        # Without row exclusion the anomalous sample contaminates every
        # window it enters: all four intermediate stamps get flagged and
        # their residuals sit an order of magnitude above the robust ones.
        clean, f, stream = run
        _, robust_by = self.score(clean, stream)
        _, spe_by = self.score(clean, stream, config=DetectorConfig(n_s=0))
        assert all(spe_by[i].flagged for i in range(172, 176))
        robust_mid = max(robust_by[i].abs_residual for i in range(172, 176))
        spe_mid = max(spe_by[i].abs_residual for i in range(172, 176))
        assert spe_mid > 10.0 * robust_mid


class TestBoundedState:
    def test_long_stream_keeps_t_max_values(self):
        # 20 000 default steps: the history buffer keeps exactly the last
        # t_max stored values at every step, across its compactions, and the
        # memory holds one magnitude per replayed training window and step.
        clean = generate_clean(SynthSpec(length=20300, seed=0))
        st = train(series(clean.values[:300]))
        t_max = st.config.t_max
        stored = clean.values.copy()
        for i in range(300, 20300):
            record = step(st, float(clean.values[i]))
            if record.replaced_value is not None:
                stored[i] = record.replaced_value
            assert np.array_equal(st.history, stored[i + 1 - t_max:i + 1])
        assert len(st.history) <= t_max
        assert len(st.memory) == 20271


class TestDowndateAgreement:
    def test_stream_scores_match_the_qr_solve(self, monkeypatch):
        # 5 000 default steps on four series that stay stable, each with 1 %
        # injected point anomalies, scored once as shipped and once with
        # every window sent to the QR solve. The two solves differ only in
        # rounding, so residuals agree to 1e-12 and the scores and flags are
        # identical; and every window of these streams takes the downdate.
        qr_solves = 0
        kept_row_solve = projection._kept_row_solve

        def counted(*args):
            nonlocal qr_solves
            qr_solves += 1
            return kept_row_solve(*args)

        monkeypatch.setattr(projection, "_kept_row_solve", counted)

        def scores(values):
            st = train(series(values[:300]))
            return zip(*[(r.residual, r.cdf_score, r.flagged)
                         for r in map(st.step, values[300:].tolist())])

        for seed in (0, 1, 5, 7):
            clean = generate_clean(SynthSpec(length=5300, seed=seed))
            spec = AnomalySpec(fraction=0.01, seed=seed, protect_prefix=300)
            values = inject_anomalies(clean, spec).values
            residual, cdf, flagged = scores(values)
            assert qr_solves == 0, seed
            with monkeypatch.context() as m:
                m.setattr(projection, "DOWNDATE_FLOOR", np.inf)
                qr_residual, qr_cdf, qr_flagged = scores(values)
            assert qr_solves == 5000 + 271
            qr_solves = 0
            assert np.max(np.abs(np.subtract(residual, qr_residual))) <= 1e-12
            assert cdf == qr_cdf
            assert flagged == qr_flagged


class TestScoreSeries:
    def test_empty_series_is_a_no_op(self):
        # A state that scores nothing holds what training gave it: the kept
        # values, one magnitude per replayed window, and no steps.
        st = train(generate_clean(SynthSpec(length=150, seed=2)))
        assert [st.step(v) for v in []] == []
        assert (len(st.memory), len(st.history), st.samples_seen, st.counter) == (121, 150, 150, 0)

    def test_strict_threshold_gives_zero_flags_on_clean_data(self):
        clean = generate_clean(SynthSpec(length=300, seed=16))
        cfg = DetectorConfig(cdf_threshold=0.999)
        st = train(series(clean.values[:150]), config=cfg)
        recs = [st.step(v) for v in clean.values[150:].tolist()]
        assert sum(r.flagged for r in recs) == 0
        assert [r.index for r in recs] == list(range(150, 300))

    def test_deterministic(self):
        clean = generate_clean(SynthSpec(length=300, seed=5))

        def once():
            st = train(series(clean.values[:150]))
            return [
                (r.index, r.residual, r.cdf_score, r.flagged, r.replaced_value)
                for r in map(st.step, clean.values[150:].tolist())
            ]

        assert once() == once()

    def test_accepts_time_series_input(self):
        # train takes a TimeSeries, and step takes its numpy scalars as they
        # are: the records equal those of the same values as Python floats.
        clean = generate_clean(SynthSpec(length=200, seed=5))
        scalars, floats = (train(series(clean.values[:150])) for _ in range(2))
        recs = [scalars.step(v) for v in series(clean.values[150:]).values]
        assert len(recs) == 50
        assert all(isinstance(r, ScoreRecord) for r in recs)
        assert recs == [floats.step(v) for v in clean.values[150:].tolist()]


@pytest.fixture()
def entry_point_calls(monkeypatch):
    """Counts of the calls made through detector.step, train and warm_start.

    Each is wrapped on the module, where the benchmark's step clock and
    tracer put their wrappers, so a caller that bound a function early
    (an import by name, a table, a partial) would go uncounted.
    """
    calls = Counter()

    def counted(name):
        original = getattr(detector, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in ("step", "train", "warm_start"):
        monkeypatch.setattr(detector, name, counted(name))
    return calls


class TestEntryPointLookups:
    def test_method_scores_trains_and_steps_through_the_module(self, entry_point_calls):
        labelled = scenario_run_series(TABLE_SCENARIOS["table1"], 101)
        scores, _ = method_scores(labelled, 100, ("rpe", "spe", "iid", "ar"))
        # iid and ar keep their own state; rpe and spe each train once and
        # step every post-training stamp.
        assert dict(entry_point_calls) == {"train": 2, "step": 2 * 200}
        assert all(v.size == 200 for v in scores.values())

    @pytest.mark.parametrize("start", ["warm", "cold"])
    @pytest.mark.parametrize("method", ["rpe", "spe"])
    def test_cli_detect_warm_starts_and_steps_through_the_module(
            self, entry_point_calls, tmp_path, method, start):
        clean = generate_clean(SynthSpec(length=250, seed=4))
        write_csv(tmp_path / "train.csv", series(clean.values[:150]))
        write_csv(tmp_path / "input.csv", series(clean.values[150:]))
        model = tmp_path / "model.json"
        assert cli.main(["train", "--input", str(tmp_path / "train.csv"),
                         "--output", str(model)]) == 0
        assert dict(entry_point_calls) == {"train": 1}
        entry_point_calls.clear()
        seed = ["--train", str(tmp_path / "train.csv")] if start == "warm" else []
        assert cli.main(["detect", "--method", method, "--model", str(model), *seed,
                         "--input", str(tmp_path / "input.csv"),
                         "--output", str(tmp_path / "scores.csv")]) == 0
        # A cold start seeds with the input's first M1 = 30 values.
        steps = 100 if start == "warm" else 100 - 30
        assert dict(entry_point_calls) == {"warm_start": 1, "step": steps}
