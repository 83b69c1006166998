"""Subspace incoherence metrics: row-norm coherence, l1 conditioning, and
their product."""

import numpy as np
import pytest
from scipy.fft import dct

from rpe.coherence import (
    coherence_report,
    check_orthonormal,
    gamma_estimate,
    mu_squared,
)
from rpe.errors import NotOrthonormal


def dct_frame(m1: int, cols) -> np.ndarray:
    return dct(np.eye(m1), norm="ortho", axis=0)[:, list(cols)]


class TestMuSquared:
    def test_identity_columns(self):
        for m1, r in ((6, 2), (10, 3), (30, 5)):
            u = np.eye(m1)[:, :r]
            assert mu_squared(u) == pytest.approx(1.0 / r)

    def test_flat_single_column(self):
        u = np.full((4, 1), 0.5)
        assert mu_squared(u) == pytest.approx(0.25)

    def test_lower_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m1, r = 17, 4
            q, _ = np.linalg.qr(rng.standard_normal((m1, r)))
            assert mu_squared(q) >= 1.0 / m1 - 1e-12

    def test_rejects_non_orthonormal(self):
        with pytest.raises(NotOrthonormal):
            mu_squared(np.ones((4, 2)))

    def test_concentration_of_random_subspaces(self):
        # Haar-random 5-dim subspaces of R^200 have small row coherence.
        for seed in range(50):
            rng = np.random.default_rng(seed)
            q, _ = np.linalg.qr(rng.standard_normal((200, 5)))
            assert mu_squared(q) < 0.15

    def test_appending_basis_column_monotone_when_rows_small(self):
        # Append e_k to a basis whose row k is zero: valid orthonormal
        # extension. Monotonicity holds whenever max row norm^2 <= r/(r+1).
        rng = np.random.default_rng(7)
        for _ in range(25):
            m1, r, k = 40, 3, 11
            q, _ = np.linalg.qr(rng.standard_normal((m1 - 1, r)))
            u = np.insert(q, k, 0.0, axis=0)
            max_row = (u * u).sum(axis=1).max()
            if max_row > r / (r + 1):
                continue
            extended = np.hstack([u, np.eye(m1)[:, [k]]])
            assert mu_squared(extended) >= mu_squared(u) - 1e-12


class TestGamma:
    def test_rank_one_exact(self):
        u = np.array([[0.6], [0.8]])
        report = coherence_report(u)
        assert report.gamma_estimate == pytest.approx(1.0 / 1.4)
        assert report.gamma_is_exact is True

    def test_identity_r2_converges_to_one(self):
        u = np.eye(5)[:, :2]
        assert gamma_estimate(u, n_starts=16, seed=0) == pytest.approx(1.0, abs=1e-6)

    def test_dct_frame_against_grid_oracle(self):
        # Independent oracle: exhaustive 0.5-degree grid over the 2-sphere.
        u = dct_frame(30, (0, 1, 2))
        step = np.radians(0.5)
        theta = np.arange(0.0, np.pi, step)
        phi = np.arange(0.0, 2 * np.pi, step)
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        h = np.stack(
            [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
        ).reshape(-1, 3)
        gamma_grid = 1.0 / np.abs(h @ u.T).sum(axis=1).min()
        est = gamma_estimate(u, n_starts=64, seed=0)
        assert est == pytest.approx(gamma_grid, rel=0.02)
        # Frozen oracle value so regressions are visible without the grid.
        assert gamma_grid == pytest.approx(0.288600, abs=2e-4)

    def test_multi_start_is_exact_flagged_false(self):
        report = coherence_report(dct_frame(12, (1, 3)))
        assert report.gamma_is_exact is False

    def test_rotation_invariance_estimate(self):
        u = dct_frame(20, (1, 4, 7))
        base = gamma_estimate(u, n_starts=64, seed=0)
        rng = np.random.default_rng(3)
        for _ in range(3):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            rotated = gamma_estimate(u @ q, n_starts=64, seed=0)
            assert rotated == pytest.approx(base, rel=1e-3)

    def test_seeded_determinism(self):
        u = dct_frame(15, (2, 5))
        a = gamma_estimate(u, n_starts=8, seed=11)
        b = gamma_estimate(u, n_starts=8, seed=11)
        assert a == b

    @pytest.mark.parametrize("n_starts", [0, -3])
    def test_no_start_is_rejected(self, n_starts):
        # No descent would run, and 1 / inf would report a gamma of 0.
        with pytest.raises(ValueError, match="n_starts"):
            gamma_estimate(dct_frame(15, (2, 5)), n_starts=n_starts)
        with pytest.raises(ValueError, match="n_starts"):
            coherence_report(dct_frame(15, (2, 5)), n_starts=n_starts)


class TestKappa:
    def test_standard_basis_vector(self):
        u = np.eye(2)[:, [0]]
        r = coherence_report(u)
        assert r.mu_squared == pytest.approx(1.0)
        assert r.gamma_estimate == pytest.approx(1.0)
        assert r.kappa_estimate == pytest.approx(1.0)

    def test_flat_two_vector(self):
        u = np.full((2, 1), 1.0 / np.sqrt(2.0))
        r = coherence_report(u)
        assert r.mu_squared == pytest.approx(0.5)
        assert r.gamma_estimate == pytest.approx(1.0 / np.sqrt(2.0))
        assert r.kappa_estimate == pytest.approx(0.5)

    def test_product_identity_machine_precision(self):
        u = dct_frame(30, (0, 1, 2))
        r = coherence_report(u)
        assert r.kappa_estimate == np.sqrt(r.mu_squared) * r.gamma_estimate


def test_check_orthonormal_tolerance():
    u = np.eye(4)[:, :2]
    check_orthonormal(u)
    with pytest.raises(NotOrthonormal):
        check_orthonormal(u * 1.001)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_orthonormal_rejects_non_finite_entries(bad):
    # A NaN in U^T U makes the deviation NaN, which must not pass the bound.
    u = np.eye(4)[:, :2]
    u[3, 0] = bad
    with pytest.raises(NotOrthonormal):
        check_orthonormal(u)
