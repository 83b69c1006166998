"""Robust projection and the coherence statistics that certify it.

The detector scores a window by projecting it onto the learned subspace; a
gross outlier inside the window wrecks a plain least-squares projection. The
robust projection first ranks rows by preliminary residual, drops the worst
n_s, and solves on the rest — a closed form, no iterations. This demo plants
spikes a thousand times the signal scale, shows exact coefficient recovery,
and computes the coherence numbers (mu^2, gamma, kappa) that tell you in
advance how many corruptions a subspace can absorb.

Run:  python3 demos/02_robust_projection_and_coherence.py
"""

import numpy as np
from scipy.fft import dct

from rpe.coherence import coherence_report, mu_squared
from rpe.projection import robust_projection


def cosine_frame(m1: int, cols: list[int]) -> np.ndarray:
    """Orthonormal columns drawn from a cosine transform frame."""
    return dct(np.eye(m1), norm="ortho", axis=0)[:, cols]


def main() -> None:
    m1, n_s = 30, 5
    u = cosine_frame(m1, [0, 1, 2])
    a_true = np.array([2.0, -1.0, 0.5])
    window = u @ a_true

    corrupted = window.copy()
    scale = np.abs(window).max()
    corrupted[7] += 1000.0 * scale
    corrupted[19] -= 1000.0 * scale

    print("three-dimensional cosine subspace, window of 30, two spikes at "
          "1000x the signal scale\n")

    plain = robust_projection(u, corrupted, 0)  # n_s = 0 keeps every row
    print("plain projection (least squares on all rows)")
    print(f"  coefficient error : {np.abs(plain.a_hat - a_true).max():.3e}")
    print(f"  residual spread over clean rows: "
          f"{np.abs(np.delete(plain.residual, [7, 19])).max():.3e} "
          "(the spikes smear into every row)\n")

    result = robust_projection(u, corrupted, n_s)
    print(f"robust projection (drop the {n_s} rows with largest preliminary "
          "residual, solve on the rest)")
    print(f"  coefficient error : {np.abs(result.a_hat - a_true).max():.3e}")
    print(f"  rows kept         : {len(result.kept_rows)} of {m1}; "
          f"spike rows 7 and 19 excluded: "
          f"{7 not in result.kept_rows and 19 not in result.kept_rows}")
    print(f"  clean-row residual: "
          f"{np.abs(result.residual[result.kept_rows]).max():.3e}\n")

    # Why it works: the preliminary residual of a corrupted row exceeds every
    # clean row's whenever the subspace is incoherent enough. The statistics
    # below quantify that.
    report = coherence_report(u, n_starts=64, seed=0)
    print("coherence of the subspace")
    print(f"  mu^2   = {report.mu_squared:.4f}   "
          f"(max row energy / rank; 1/M1 = {1 / m1:.4f} is the best possible)")
    print(f"  gamma  = {report.gamma_estimate:.4f}   "
          "(worst-case 1/l1-norm over unit vectors in the span)")
    print(f"  kappa  = {report.kappa_estimate:.4f}   (mu * gamma)")
    m = 2
    bound = 1.0 / (2.0 * u.shape[1] * m)
    print(f"  exact-recovery condition for m = {m} corruptions: "
          f"mu^2 <= 1/(2 r m) = {bound:.4f} -> {report.mu_squared <= bound}\n")

    # A coherent subspace by contrast: standard basis vectors concentrate all
    # energy in single rows, so one corruption can hide inside the span.
    spiky = np.eye(m1)[:, :3]
    print("contrast: a subspace spanned by standard basis vectors")
    print(f"  mu^2 = {mu_squared(spiky):.4f} (maximal); the same condition "
          f"gives {mu_squared(spiky):.4f} <= {bound:.4f} -> "
          f"{mu_squared(spiky) <= bound} — no recovery guarantee")


if __name__ == "__main__":
    main()
