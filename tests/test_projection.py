"""Window projection tests: the plain projection (no row excluded), the
closed-form robust solve, and the iterative l1 reference solver."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dct

from reference import (
    DidNotConverge,
    kept_row_solve_reference,
    l1_projection_oracle,
    robust_coefficients_reference,
    simple_projection,
)
from rpe import projection
from rpe.errors import BadBudget, DimensionMismatch, NonFiniteValue, RankDeficient
from rpe.projection import (
    DOWNDATE_FLOOR,
    RobustProjectionResult,
    _kept_row_solve,
    robust_projection,
)


def dct_frame(m1: int, cols) -> np.ndarray:
    return dct(np.eye(m1), norm="ortho", axis=0)[:, list(cols)]


def plain_projection(u, x):
    """The plain projection: robust_projection with no row excluded."""
    result = robust_projection(u, x, 0)
    return result.a_hat, result.residual


class TestSimpleProjection:
    def test_in_span(self):
        u = dct_frame(12, (1, 3, 5))
        a = np.array([2.0, -1.0, 0.5])
        a_hat, residual = plain_projection(u, u @ a)
        np.testing.assert_allclose(a_hat, a, atol=1e-12)
        np.testing.assert_allclose(residual, 0.0, atol=1e-12)

    def test_orthogonal_input(self):
        u = np.eye(4)[:, :2]
        x = np.array([0.0, 0.0, 3.0, -4.0])
        a_hat, residual = plain_projection(u, x)
        np.testing.assert_allclose(a_hat, 0.0, atol=1e-15)
        np.testing.assert_array_equal(residual, x)

    def test_coordinate_projection(self):
        u = np.eye(3)[:, [0]]
        a_hat, residual = plain_projection(u, np.array([2.0, 5.0, -1.0]))
        np.testing.assert_allclose(a_hat, [2.0])
        np.testing.assert_allclose(residual, [0.0, 5.0, -1.0])

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.standard_normal((10, 3)))
        _, residual = plain_projection(u, rng.standard_normal(10))
        np.testing.assert_allclose(u.T @ residual, 0.0, atol=1e-12)

    def test_idempotence(self):
        rng = np.random.default_rng(1)
        u, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        a_hat, _ = plain_projection(u, rng.standard_normal(8))
        again, residual = plain_projection(u, u @ a_hat)
        np.testing.assert_allclose(again, a_hat, atol=1e-13)
        np.testing.assert_allclose(residual, 0.0, atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            plain_projection(np.eye(4)[:, :2], np.zeros(5))


class TestRobustProjection:
    def test_budget_zero_equals_simple(self):
        rng = np.random.default_rng(2)
        u, _ = np.linalg.qr(rng.standard_normal((9, 3)))
        x = rng.standard_normal(9)
        result = robust_projection(u, x, 0)
        a_simple, res_simple = simple_projection(u, x)
        np.testing.assert_array_equal(result.a_hat, a_simple)  # bitwise
        np.testing.assert_array_equal(result.residual, res_simple)
        assert result.kept_rows.size == 9

    def test_uncorrupted_any_budget(self):
        u = dct_frame(20, (1, 2, 6))
        a = np.array([1.0, -2.0, 0.3])
        for n_s in (0, 1, 5, 10):
            result = robust_projection(u, u @ a, n_s)
            np.testing.assert_allclose(result.a_hat, a, atol=1e-12)

    def test_dct_spike_recovery(self):
        # Forward construction: two large spikes on a 3-dim cosine-frame
        # subspace; the closed-form solve must recover the coefficients and
        # route out exactly the corrupted rows.
        u = dct_frame(30, (0, 1, 2))
        rng = np.random.default_rng(42)
        a = rng.standard_normal(3)
        tau = 50.0 * np.abs(u @ a).max()
        x = u @ a
        x[7] += tau
        x[19] -= tau
        result = robust_projection(u, x, 5)
        np.testing.assert_allclose(result.a_hat, a, atol=1e-8)
        assert 7 not in result.kept_rows and 19 not in result.kept_rows
        assert result.kept_rows.size == 25
        # Cross-check against the l1 reference solver.
        oracle = l1_projection_oracle(u, x)
        np.testing.assert_allclose(result.a_hat, oracle, atol=1e-5)

    def test_magnitude_independence(self):
        u = dct_frame(30, (2, 5, 11))
        rng = np.random.default_rng(3)
        a = rng.standard_normal(3)
        base = u @ a
        tau = 10.0 * np.abs(base).max()
        for scale in (1.0, 10.0):
            x = base.copy()
            x[4] += tau * scale
            x[22] -= tau * scale
            result = robust_projection(u, x, 5)
            np.testing.assert_allclose(result.a_hat, a, atol=1e-8)

    def test_result_fields_consistent(self):
        u = dct_frame(10, (1, 4))
        rng = np.random.default_rng(5)
        x = rng.standard_normal(10)
        result = robust_projection(u, x, 3)
        np.testing.assert_array_equal(result.residual, x - u @ result.a_hat)
        a0, res0 = simple_projection(u, x)
        np.testing.assert_array_equal(result.prelim_residual, np.abs(res0))
        assert np.all(np.diff(result.kept_rows) > 0)

    def test_tie_break_prefers_lower_index(self):
        # All preliminary residuals equal -> the excluded rows are the
        # highest-index ones, the kept set the lowest-index ones.
        u = np.eye(6)[:, :2]
        x = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        result = robust_projection(u, x, 2)
        np.testing.assert_array_equal(result.kept_rows, [0, 1, 2, 3])

    def test_bad_budget(self):
        u = np.eye(5)[:, :3]
        with pytest.raises(BadBudget):
            robust_projection(u, np.zeros(5), 3)  # 3 + 3 > 5
        with pytest.raises(BadBudget):
            robust_projection(u, np.zeros(5), -1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            robust_projection(np.eye(4)[:, :2], np.zeros(3), 1)

    def test_rank_deficient_kept_rows(self):
        # The second coordinate is observable only through rows 1 and 2; an
        # input whose preliminary residual is largest exactly there forces
        # those rows out, leaving a singular solve that must error rather
        # than silently regularize.
        a = 1.0 / np.sqrt(2.0)
        u = np.array([[1.0, 0.0], [0.0, a], [0.0, a], [0.0, 0.0], [0.0, 0.0]])
        x = np.array([0.0, 5.0, -5.0, 0.0, 0.0])
        with pytest.raises(RankDeficient):
            robust_projection(u, x, 2)

    @pytest.mark.parametrize("where, row, n_s", [
        pytest.param(where, row, n_s,
                     id=where + ("-last" if row else "") + ("" if n_s else "-n_s0"))
        for n_s in (2, 0) for row in (0, 9) for where in ("window", "basis")
    ])
    def test_non_finite_kept_row_is_typed(self, where, row, n_s):
        # One non-finite entry would make every preliminary residual NaN, so
        # no ranking could exclude it: with row 9 (the newest stamp) the
        # stable sort would drop the last rows unranked and return a finite
        # answer. It is rejected for its row before any work, for every n_s.
        u = dct_frame(10, (1, 3))
        x = u @ np.array([1.0, -0.5])
        if where == "window":
            x[row] = np.inf
        else:
            u[row, 1] = np.nan
        with pytest.raises(NonFiniteValue) as info:
            robust_projection(u, x, n_s)
        assert info.value.index == row

    def test_overflowing_finite_window_blames_largest_kept_value(self):
        # Every value is finite but near the float limit, so the solve
        # overflows to inf/NaN. No kept row holds a non-finite entry, so the
        # kept row of largest magnitude, row 7, is blamed.
        u = dct_frame(10, (1, 3))
        x = np.where(np.arange(10) % 2, -1.7e308, 1.7e308)
        x[7] = -1.75e308
        with pytest.raises(NonFiniteValue) as info, \
                np.errstate(over="ignore", invalid="ignore"):
            robust_projection(u, x, 2)
        assert info.value.index == 7
        assert str(info.value) == "non-finite number in the kept-row solve at index 7"

    @pytest.mark.parametrize("m1", [10, 30, 60])
    @pytest.mark.parametrize("rank", range(1, 11))
    def test_matches_lstsq_on_kept_rows(self, m1, rank):
        # The kept-row solve against an SVD least-squares reference, with up
        # to n_s spikes as large as 1e12.
        n_s = min(5, m1 - rank)
        rng = np.random.default_rng(100 * m1 + rank)
        for _ in range(20):
            u, _ = np.linalg.qr(rng.standard_normal((m1, rank)))
            x = u @ rng.standard_normal(rank) + 0.05 * rng.standard_normal(m1)
            k = rng.integers(0, n_s + 1)
            rows = rng.choice(m1, k, replace=False)
            x[rows] += rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(0, 12, k)
            result = robust_projection(u, x, n_s)
            kept = result.kept_rows
            ref = np.linalg.lstsq(u[kept], x[kept], rcond=None)[0]
            assert np.linalg.norm(result.a_hat - ref) <= 1e-12 * np.linalg.norm(ref)

    @settings(max_examples=300, deadline=None)
    @given(
        m1=st.sampled_from([10, 12, 30, 60]),
        rank=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
        coherent=st.booleans(),
    )
    def test_downdate_matches_lstsq_on_kept_rows(self, m1, rank, seed, coherent):
        # Orthonormal bases with spikes up to 1e12. A coherent basis has 1-3
        # rows scaled by 2-20 before re-orthonormalising, so excluding them
        # can leave the kept rows badly conditioned: the downdate must then
        # decline, or its error would show against the SVD reference. A
        # declined window gets the QR solve's coefficients, whose own
        # agreement with the reference is tested above on fixed seeds (it can
        # exceed 1e-12 on a badly conditioned window).
        rng = np.random.default_rng(seed)
        n_s = min(5, m1 - rank)
        raw = rng.standard_normal((m1, rank))
        if coherent:
            rows = rng.choice(m1, rng.integers(1, 4), replace=False)
            raw[rows] *= rng.uniform(2.0, 20.0, rows.size)[:, None]
        u, _ = np.linalg.qr(raw)
        x = u @ rng.standard_normal(rank) + 0.05 * rng.standard_normal(m1)
        k = rng.integers(0, n_s + 1)
        rows = rng.choice(m1, k, replace=False)
        x[rows] += rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(0, 12, k)
        result = robust_projection(u, x, n_s)
        kept = result.kept_rows
        if n_s and np.array_equal(result.a_hat, _kept_row_solve(u, x, kept)):
            return
        ref = np.linalg.lstsq(u[kept], x[kept], rcond=None)[0]
        assert np.linalg.norm(result.a_hat - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_ill_conditioned_exclusion_falls_back_to_qr(self):
        # Rows 0-2 of a coherent basis carry spikes; the rows it excludes
        # leave det(I - B B^T) below the floor, so the result is the QR
        # solve's, bit for bit. (Accepted, the downdate would differ from it
        # by about 1e-10 here.)
        rng = np.random.default_rng(161)
        raw = rng.standard_normal((12, 4))
        raw[:3] *= rng.uniform(2.0, 20.0)
        u, _ = np.linalg.qr(raw)
        x = u @ rng.standard_normal(4) + 0.05 * rng.standard_normal(12)
        x[:3] += rng.choice([-1.0, 1.0], 3) * 1e3
        result = robust_projection(u, x, 3)
        kept = result.kept_rows
        b = np.delete(u, kept, axis=0)
        assert np.linalg.det(np.eye(3) - b @ b.T) < DOWNDATE_FLOOR
        np.testing.assert_array_equal(result.a_hat, _kept_row_solve(u, x, kept))

    def test_evidence_survives_a_reused_window_buffer(self):
        # A caller may pass a view of a buffer that it overwrites next; the
        # evidence, computed before the call returns, must not follow it.
        u = dct_frame(30, (0, 1, 2))
        rng = np.random.default_rng(9)
        x = u @ rng.standard_normal(3) + 0.05 * rng.standard_normal(30)
        x[[4, 22]] += 50.0
        expected = robust_projection(u, x.copy(), 5)
        expected_kept, expected_residual = expected.kept_rows, expected.residual
        result = robust_projection(u, x, 5)
        x[:] = rng.standard_normal(30) * 1e3
        np.testing.assert_array_equal(result.kept_rows, expected_kept)
        np.testing.assert_array_equal(result.residual, expected_residual)

    @pytest.mark.parametrize("floor", [DOWNDATE_FLOOR, np.inf], ids=["downdate", "qr"])
    def test_a_hat_is_the_cores_bit_for_bit(self, monkeypatch, floor):
        # The checked public call and the detector's unchecked core solve the
        # same way; an infinite floor sends every n_s >= 1 window to the QR,
        # whose dtrtrs call must give scipy's solve_triangular bits. Rank 1
        # gives a 1 x 1 R, which solve_triangular solves by its other branch.
        monkeypatch.setattr(projection, "DOWNDATE_FLOOR", floor)
        rng = np.random.default_rng(12)
        for m1, rank in ((10, 2), (30, 10), (60, 4), (12, 1)):
            u, _ = np.linalg.qr(rng.standard_normal((m1, rank)))
            for n_s in range(6):
                x = u @ rng.standard_normal(rank) + 0.05 * rng.standard_normal(m1)
                rows = rng.choice(m1, n_s, replace=False)
                x[rows] += rng.choice([-1.0, 1.0], n_s) * 10.0 ** rng.uniform(0, 12, n_s)
                result = robust_projection(u, x, n_s)
                np.testing.assert_array_equal(
                    result.a_hat, projection.robust_coefficients(u, x, n_s))
                if n_s and floor == np.inf:
                    np.testing.assert_array_equal(
                        _kept_row_solve(u, x, result.kept_rows),
                        kept_row_solve_reference(u, x, result.kept_rows),
                    )

    @pytest.mark.parametrize("floor", [DOWNDATE_FLOOR, np.inf], ids=["downdate", "qr"])
    def test_core_matches_the_matmul_reference_bit_for_bit(self, monkeypatch, floor):
        # The core computes its products with ndarray.dot; the reference
        # computes them with @ and zeroes the excluded rows by index
        # assignment. The bits must not differ, spikes up to 1e12 included.
        monkeypatch.setattr(projection, "DOWNDATE_FLOOR", floor)
        rng = np.random.default_rng(27)
        for m1, rank in ((10, 1), (10, 3), (30, 10), (60, 4), (60, 10)):
            u, _ = np.linalg.qr(rng.standard_normal((m1, rank)))
            for n_s in range(m1 - rank + 1):
                for _ in range(3):
                    x = u @ rng.standard_normal(rank) + 0.05 * rng.standard_normal(m1)
                    spikes = min(n_s, 5) + int(rng.integers(0, 2))
                    rows = rng.choice(m1, spikes, replace=False)
                    x[rows] += rng.choice([-1.0, 1.0], spikes) * 10.0 ** rng.uniform(0, 12, spikes)
                    expected = robust_coefficients_reference(u, x, n_s)
                    np.testing.assert_array_equal(
                        projection.robust_coefficients(u, x, n_s), expected)
                    result = robust_projection(u, x, n_s)
                    np.testing.assert_array_equal(result.a_hat, expected)
                    np.testing.assert_array_equal(result.residual, x - u @ expected)

    def test_result_is_an_immutable_tuple(self):
        u = dct_frame(10, (1, 4))
        x = np.arange(10.0)
        result = robust_projection(u, x, 2)
        a_hat, kept_rows, residual, prelim_residual = result
        assert a_hat is result.a_hat and kept_rows is result.kept_rows
        assert residual is result.residual and prelim_residual is result.prelim_residual
        assert RobustProjectionResult._fields == (
            "a_hat", "kept_rows", "residual", "prelim_residual")
        with pytest.raises(AttributeError):
            result.a_hat = np.zeros(2)


def run_fresh(code: str) -> str:
    """stdout of ``code`` run by a new interpreter that imports rpe from src."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestKernelImport:
    def test_import_rpe_leaves_out_scipy_linalg(self):
        loaded = run_fresh(
            "import sys, rpe, rpe.cli\n"
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
        ).split()
        assert loaded == ["scipy.linalg._fblas", "scipy.linalg._flapack"]

    def test_a_missing_compiled_module_raises_import_error(self):
        with pytest.raises(ImportError, match="scipy.linalg._no_such_module"):
            projection._linalg_extension("_no_such_module")
        assert "scipy.linalg._no_such_module" not in sys.modules

    @pytest.mark.parametrize("first", ["rpe", "scipy.linalg"])
    def test_kernels_are_scipys_own_objects(self, first):
        # The same f2py objects, whichever side is imported first, so rpe
        # computes exactly what scipy.linalg.blas and .lapack would.
        imports = ["import rpe.projection as p",
                   "import scipy.linalg.blas as blas, scipy.linalg.lapack as lapack"]
        if first != "rpe":
            imports.reverse()
        same = run_fresh("\n".join(imports + [
            "print(p.dgemv is blas.dgemv, p.dsyrk is blas.dsyrk,"
            " p.dposv is lapack.dposv, p.dtrtrs is lapack.dtrtrs)"]))
        assert same.split() == ["True"] * 4


PACKAGE_MODULES = ["baselines", "coherence", "detector", "errors", "evaluation", "projection",
                   "subspace", "synth", "trajectory"]


class TestPackageImport:
    """The benchmark and tools/score_report.py reach every module as an
    attribute of a bare ``import rpe``; each name is imported from its module
    only, and the CLI stays out of the import."""

    def test_import_rpe_loads_every_module_but_the_cli(self):
        loaded = run_fresh(
            "import sys, rpe\n"
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'rpe')))"
        ).split()
        assert loaded == ["rpe"] + [f"rpe.{name}" for name in PACKAGE_MODULES]

    def test_package_holds_its_modules_and_no_other_name(self):
        names = run_fresh(
            "import rpe\n"
            "print(*sorted(n for n in vars(rpe) if not n.startswith('__')),"
            " hasattr(rpe, '__all__'), hasattr(rpe, '__version__'))"
        ).split()
        assert names == PACKAGE_MODULES + ["False", "False"]


class TestL1Oracle:
    def test_zero_objective(self):
        u = dct_frame(15, (1, 2))
        a = np.array([0.7, -0.2])
        np.testing.assert_allclose(l1_projection_oracle(u, u @ a), a, atol=1e-10)

    def test_scalar_median_characterization(self):
        u = np.full((5, 1), 1.0 / np.sqrt(5.0))
        x = np.array([1.0, 1.0, 1.0, 1.0, 9.0])
        # The l1-optimal fit puts c/sqrt(5) at the sample median 1.
        c = l1_projection_oracle(u, x)
        np.testing.assert_allclose(c, [np.sqrt(5.0)], atol=1e-6)

    def test_non_convergence_warns_with_last_iterate(self):
        u = dct_frame(12, (1, 5))
        rng = np.random.default_rng(8)
        x = rng.standard_normal(12)
        with pytest.warns(DidNotConverge) as record:
            l1_projection_oracle(u, x, max_iter=1, tol=1e-16)
        assert record[0].message.last_iterate.shape == (2,)


class TestResidualOfLast:
    def test_clean_window(self):
        u = dct_frame(10, (1, 3))
        a = np.array([1.0, 2.0])
        x = u @ a
        result = robust_projection(u, x, 2)
        assert abs(x[-1] - result.a_hat @ u[-1]) < 1e-10
        assert x[-1] - result.a_hat @ u[-1] == pytest.approx(result.residual[-1])

    def test_anomaly_on_last_element(self):
        u = dct_frame(30, (0, 1, 2))
        rng = np.random.default_rng(11)
        a = rng.standard_normal(3)
        tau = 40.0 * np.abs(u @ a).max()
        x = u @ a
        x[-1] += tau
        result = robust_projection(u, x, 5)
        assert x[-1] - result.a_hat @ u[-1] == pytest.approx(tau, abs=1e-8)

    def test_budget_zero_clean(self):
        u = dct_frame(8, (2,))
        x = u @ np.array([3.0])
        result = robust_projection(u, x, 0)
        assert abs(x[-1] - result.a_hat @ u[-1]) < 1e-12


class TestNoiseStatistics:
    def test_unbiased_and_variance_below_noise_scale(self):
        # Fixed subspace, coefficients, and two-spike corruption; 2000 seeded
        # Gaussian-noise trials. The spike positions sit on zero rows of U, so
        # the spikes carry no signal component and row exclusion stays
        # sign-symmetric: the estimate is unbiased. Per-coordinate standard
        # deviation cannot drop below the noise level (Cramer-Rao floor
        # sigma, less three standard errors of a sample deviation), and cannot
        # exceed the noise gain sigma / sqrt(1 - lambda*) of least squares on
        # any admissible kept set: the dropped non-spike rows B give
        # U_K^T U_K = I - U_B^T U_B, and lambda* is the largest eigenvalue of
        # U_B^T U_B over every B of n_s - 2 non-spike rows.
        m1, sigma, n_s, trials = 30, 0.1, 5, 2000
        pos = (6, 21)
        b = dct(np.eye(m1), norm="ortho", axis=0)[:, [1, 4, 9]]
        b[list(pos), :] = 0.0
        u, rmat = np.linalg.qr(b)
        u = u * np.sign(np.diag(rmat))
        a = np.array([1.5, -2.0, 1.0])
        s = np.zeros(m1)
        s[pos[0]] = 5.0
        s[pos[1]] = -5.0
        rng = np.random.default_rng(2026)
        estimates = np.empty((trials, 3))
        for i in range(trials):
            x = u @ a + s + rng.normal(0.0, sigma, m1)
            result = robust_projection(u, x, n_s)
            estimates[i] = result.a_hat
            assert pos[0] not in result.kept_rows
            assert pos[1] not in result.kept_rows
        mean = estimates.mean(axis=0)
        std = estimates.std(axis=0, ddof=1)
        stderr = std / np.sqrt(trials)
        assert np.all(np.abs(mean - a) <= 3.0 * stderr)
        free_rows = [i for i in range(m1) if i not in pos]
        u_b = u[np.array(list(itertools.combinations(free_rows, n_s - len(pos))))]
        lam_star = np.linalg.eigvalsh(u_b.transpose(0, 2, 1) @ u_b)[:, -1].max()
        floor = sigma * (1.0 - 3.0 / np.sqrt(2.0 * (trials - 1)))
        ceiling = sigma / np.sqrt(1.0 - lam_star)
        assert np.all(std >= floor)  # no unbiased estimate beats the noise
        assert np.all(std <= ceiling)  # no worse than any admissible kept set
