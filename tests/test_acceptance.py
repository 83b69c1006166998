"""End-to-end acceptance suite.

One test per numbered criterion. Each test prints a single
``criterion NN: PASS|FAIL`` line with its measured numbers (bypassing
capture, so a plain pytest run reads as a checklist) and then asserts its
gates. Benchmarks reuse module-scoped fixtures so each scenario's twenty
seeded runs execute once.
"""

import dataclasses
import importlib.util
import itertools
import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.fft import dct

from reference import l1_projection_oracle
from rpe import cli
from rpe.coherence import mu_squared
from rpe.detector import DetectorConfig
from rpe.evaluation import TABLE_SCENARIOS, run_scenario
from rpe.projection import robust_projection

DATA = Path(__file__).resolve().parent.parent / "data"
TESTS = Path(__file__).resolve().parent


def announce(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {number:02d}: {'PASS' if ok else 'FAIL'} — {detail}")


def timed_table(name: str):
    start = time.perf_counter()
    report = run_scenario(TABLE_SCENARIOS[name])
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def table1():
    return timed_table("table1")


@pytest.fixture(scope="module")
def table2():
    return timed_table("table2")


@pytest.fixture(scope="module")
def table3():
    return timed_table("table3")


@pytest.fixture(scope="module")
def table4():
    return timed_table("table4")


def f1(report, method: str) -> float:
    return report.methods[method].mean_f1


def test_criterion_01_point_anomalies_full_amplitude(table1, capsys):
    """Full-amplitude point anomalies: the robust detector nears perfect F1,
    the plain projection trails slightly, the Gaussian scorer trails far."""
    report, elapsed = table1
    rpe, spe, iid = f1(report, "rpe"), f1(report, "spe"), f1(report, "iid")
    ok = rpe >= 0.97 and 0.88 <= spe <= 1.0 and iid <= 0.80 and elapsed < 60.0
    announce(capsys, 1, ok,
             f"F1 rpe={rpe:.3f} spe={spe:.3f} iid={iid:.3f} in {elapsed:.1f}s")
    assert rpe >= 0.97
    assert 0.88 <= spe <= 1.0
    assert iid <= 0.80
    assert elapsed < 60.0


def test_criterion_02_point_anomalies_half_amplitude(table2, capsys):
    """Half-amplitude points: contextual anomalies inside the global value
    range, where the Gaussian scorer collapses."""
    report, _ = table2
    rpe, iid = f1(report, "rpe"), f1(report, "iid")
    ok = rpe >= 0.90 and rpe - iid >= 0.4
    announce(capsys, 2, ok, f"F1 rpe={rpe:.3f} iid={iid:.3f} gap={rpe - iid:.3f}")
    assert rpe >= 0.90
    assert rpe - iid >= 0.4


def test_criterion_03_short_range_anomalies(table3, capsys):
    """Two-stamp runs at reduced amplitude: row exclusion keeps the window
    usable while the plain projection degrades."""
    report, _ = table3
    rpe, spe = f1(report, "rpe"), f1(report, "spe")
    ok = rpe >= 0.90 and rpe - spe >= 0.10
    announce(capsys, 3, ok, f"F1 rpe={rpe:.3f} spe={spe:.3f} gap={rpe - spe:.3f}")
    assert rpe >= 0.90
    assert rpe - spe >= 0.10


def test_criterion_04_long_range_anomalies(table4, capsys):
    """Four-stamp runs: harder for every method, and the robust margin over
    the plain projection widens."""
    report, _ = table4
    rpe, spe = f1(report, "rpe"), f1(report, "spe")
    ok = rpe >= 0.75 and rpe - spe >= 0.15
    announce(capsys, 4, ok, f"F1 rpe={rpe:.3f} spe={spe:.3f} gap={rpe - spe:.3f}")
    assert rpe >= 0.75
    assert rpe - spe >= 0.15


def test_criterion_05_labeled_csv_benchmark_smoke(tmp_path, capsys):
    """The bench pipeline consumes a user-supplied labelled CSV end to end
    and emits a well-formed report (bundled 300-sample stand-in)."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "kind": "csv",
        "path": str(DATA / "sample_labeled.csv"),
        "train_len": 100,
    }))
    out = tmp_path / "report.json"
    code = cli.main(["bench", "--scenario", str(scenario), "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else {}
    methods = report.get("methods", {})
    well_formed = (
        code == 0
        and set(methods) == {"rpe", "spe", "iid", "ar"}
        and all(
            set(summary["per_run"][0]) == {"threshold", "precision", "recall", "f1"}
            and 0.0 <= summary["mean_f1"] <= 1.0
            for summary in methods.values()
        )
    )
    detail = ", ".join(f"{m}={methods[m]['mean_f1']:.3f}" for m in sorted(methods))
    announce(capsys, 5, well_formed, f"exit={code} report F1 {detail}")
    assert well_formed


@pytest.fixture(scope="module")
def recovery_trials():
    """500 seeded trials of robust projection on cosine-frame subspaces with
    one or two gross spikes at magnitudes up to a thousand times the signal."""
    frame = dct(np.eye(30), norm="ortho", axis=0)
    rng = np.random.default_rng(90)
    start = time.perf_counter()
    stats = {
        "condition_held": 0, "recovered": 0, "worst_recovery": 0.0,
        "separation_checked": 0, "separation_violations": 0,
        "oracle_agree": 0, "worst_disagreement": 0.0, "trials": 500,
    }
    for _ in range(500):
        r = int(rng.choice([2, 3, 5]))
        cols = np.sort(rng.choice(30, size=r, replace=False))
        u = frame[:, cols]
        a = rng.standard_normal(r) * 3.0
        m = int(rng.integers(1, 3))
        pos = rng.choice(30, size=m, replace=False)
        magnitude = float(rng.choice([10.0, 100.0, 1000.0]))
        x = u @ a
        corrupted = x.copy()
        corrupted[pos] += rng.choice([-1.0, 1.0], size=m) * magnitude * max(
            np.abs(x).max(), 1.0
        )
        result = robust_projection(u, corrupted, 5)
        error = float(np.abs(result.a_hat - a).max())
        if mu_squared(u) <= 1.0 / (2.0 * r * m):
            stats["condition_held"] += 1
            stats["worst_recovery"] = max(stats["worst_recovery"], error)
            if error <= 1e-6:
                stats["recovered"] += 1
            clean = np.setdiff1d(np.arange(30), pos)
            stats["separation_checked"] += 1
            if result.prelim_residual[pos].min() <= result.prelim_residual[clean].max():
                stats["separation_violations"] += 1
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            oracle = l1_projection_oracle(u, corrupted)
        gap = float(np.abs(oracle - result.a_hat).max())
        if gap <= 1e-5:
            stats["oracle_agree"] += 1
        else:
            stats["worst_disagreement"] = max(stats["worst_disagreement"], gap)
    stats["elapsed"] = time.perf_counter() - start
    return stats


def test_criterion_06_exact_recovery_under_incoherence(recovery_trials, capsys):
    """Whenever the coherence condition mu^2 <= 1/(2 r m) holds, the robust
    projection recovers the true coefficients exactly (to 1e-6), fast."""
    s = recovery_trials
    ok = (
        s["condition_held"] > 0
        and s["recovered"] == s["condition_held"]
        and s["elapsed"] < 1.0
    )
    announce(capsys, 6, ok,
             f"recovered {s['recovered']}/{s['condition_held']} eligible of "
             f"{s['trials']} trials (worst {s['worst_recovery']:.1e}) "
             f"in {s['elapsed']:.2f}s")
    assert s["condition_held"] > 0
    assert s["recovered"] == s["condition_held"]
    assert s["elapsed"] < 1.0


def test_criterion_07_closed_form_matches_l1_oracle(recovery_trials, capsys):
    """The closed-form coefficients agree with an iteratively reweighted
    least-absolute-deviations solve in at least 99% of all trials."""
    s = recovery_trials
    rate = s["oracle_agree"] / s["trials"]
    ok = rate >= 0.99
    announce(capsys, 7, ok,
             f"agreement {s['oracle_agree']}/{s['trials']} ({rate:.1%}), "
             f"worst disagreement {s['worst_disagreement']:.1e}")
    assert rate >= 0.99


def test_criterion_08_residual_separation(recovery_trials, capsys):
    """Under the same coherence condition, every corrupted row's preliminary
    residual exceeds every clean row's — zero violations allowed."""
    s = recovery_trials
    ok = s["separation_checked"] > 0 and s["separation_violations"] == 0
    announce(capsys, 8, ok,
             f"violations {s['separation_violations']}/{s['separation_checked']}")
    assert s["separation_checked"] > 0
    assert s["separation_violations"] == 0


def test_criterion_09_noise_statistics(capsys):
    """Coefficient statistics over 2000 noisy trials of a fixed basis, fixed
    coefficients, and two fixed spikes excluded by the robust projection.

    Three gates: the spikes are excluded in every trial, the per-coordinate
    mean lies within three standard errors of the truth, and the
    per-coordinate deviation lies between a floor and a ceiling that theory
    gives for this estimator.

    Floor: with an orthonormal basis the Cramer-Rao bound for x = U a + n,
    n ~ N(0, sigma^2 I), is Var(a_j) >= sigma^2 for any unbiased estimate, so
    the sample deviation stays above sigma less three standard errors of a
    sample deviation, sigma * (1 - 3 / sqrt(2 (N - 1))).

    Ceiling: the spike rows carry no basis weight, so dropping them costs
    nothing and the kept set K differs from the full window by the other
    n_s - 2 dropped rows B. For a fixed K the least-squares covariance is
    sigma^2 (U_K^T U_K)^-1 = sigma^2 (I - U_B^T U_B)^-1, whose diagonal is at
    most sigma^2 / (1 - lambda*), lambda* the largest eigenvalue of U_B^T U_B
    over every admissible B. The kept set here is chosen by the noise, which
    the fixed-K argument does not cover, so the gate is this worst case.
    """
    m1 = 30
    frame = dct(np.eye(m1), norm="ortho", axis=0)
    basis = frame[:, [1, 4, 9]].copy()
    basis[6, :] = 0.0   # spike rows carry no basis weight, so exclusion
    basis[21, :] = 0.0  # decisions are driven by noise alone (sign-symmetric)
    u, _ = np.linalg.qr(basis)
    a = np.array([1.5, -2.0, 1.0])
    spikes = np.zeros(m1)
    spikes[6] = 5.0
    spikes[21] = -5.0
    sigma = 0.1
    rng = np.random.default_rng(2026)
    estimates = np.empty((2000, 3))
    spikes_always_excluded = True
    for k in range(2000):
        x = u @ a + spikes + rng.normal(0.0, sigma, m1)
        result = robust_projection(u, x, 5)
        estimates[k] = result.a_hat
        if 6 in result.kept_rows or 21 in result.kept_rows:
            spikes_always_excluded = False
    mean = estimates.mean(axis=0)
    std = estimates.std(axis=0, ddof=1)
    stderr = std / np.sqrt(estimates.shape[0])
    z = np.abs(mean - a) / stderr
    floor = sigma * (1.0 - 3.0 / np.sqrt(2.0 * (estimates.shape[0] - 1)))
    free_rows = [i for i in range(m1) if i not in (6, 21)]
    u_b = u[np.array(list(itertools.combinations(free_rows, 5 - 2)))]
    lam_star = np.linalg.eigvalsh(u_b.transpose(0, 2, 1) @ u_b)[:, -1].max()
    ceiling = sigma / np.sqrt(1.0 - lam_star)
    mean_ok = spikes_always_excluded and float(z.max()) <= 3.0
    std_ok = bool(floor <= std.min() and std.max() <= ceiling)
    announce(capsys, 9, mean_ok and std_ok,
             f"max|z|={z.max():.2f} (gate 3.0), std {std.min():.4f}.."
             f"{std.max():.4f} (gate {floor:.4f}..{ceiling:.4f}), "
             f"spikes excluded in all trials: {spikes_always_excluded}")
    assert spikes_always_excluded
    assert float(z.max()) <= 3.0
    assert std.min() >= floor
    assert std.max() <= ceiling


@pytest.fixture(scope="module")
def window_sweep(table3):
    """Robust-detector F1 on the two-stamp-run scenario at window lengths
    10 and 50 (30 comes from the shared scenario report)."""
    report3, _ = table3
    sweep = {30: report3.methods["rpe"].mean_f1}
    for m1 in (10, 50):
        scenario = dataclasses.replace(
            TABLE_SCENARIOS["table3"],
            name=f"window{m1}",
            methods=("rpe",),
            detector_config=DetectorConfig(M1=m1),
        )
        sweep[m1] = run_scenario(scenario).methods["rpe"].mean_f1
    return sweep


def test_criterion_10_window_size_sensitivity(window_sweep, capsys):
    """Windows of 30 and 50 both work; a window of 10 is too short to carry
    the slow components and degrades sharply."""
    ok = (
        window_sweep[30] >= 0.90
        and window_sweep[50] >= 0.90
        and window_sweep[10] <= 0.60
    )
    announce(capsys, 10, ok,
             "F1 " + " ".join(f"M1={k}:{window_sweep[k]:.3f}" for k in (10, 30, 50)))
    assert window_sweep[30] >= 0.90
    assert window_sweep[50] >= 0.90
    assert window_sweep[10] <= 0.60


def test_criterion_11_property_suites_run_at_scale(capsys):
    """The four property suites each generate at least 1000 cases."""
    spec = importlib.util.spec_from_file_location(
        "property_suite", TESTS / "test_properties.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    expected = {
        "test_embedding_round_trip",
        "test_coherence_is_rotation_invariant",
        "test_best_f1_matches_exhaustive_enumeration",
        "test_generation_and_injection_are_seed_deterministic",
    }
    counts = {}
    for name in expected:
        fn = getattr(module, name, None)
        settings = getattr(fn, "_hypothesis_internal_use_settings", None)
        counts[name] = None if settings is None else settings.max_examples
    ok = all(c is not None and c >= 1000 for c in counts.values())
    announce(capsys, 11, ok,
             "max_examples " + ", ".join(f"{k.split('test_')[1]}={v}"
                                         for k, v in sorted(counts.items())))
    assert ok, counts
