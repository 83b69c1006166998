"""Streaming anomaly detection for univariate time series.

Sliding windows of the series are projected onto a learned low-rank
trajectory subspace; the projection excludes the most suspect window
coordinates before solving for coefficients, so a handful of corrupted
samples cannot contaminate the scores of their clean neighbours. Residual
magnitudes are ranked against a memory of past residuals to produce
threshold-free scores in [0, 1].

Every name is imported from its module, e.g. ``from rpe.detector import
train``.
"""

from . import (baselines, coherence, detector, errors, evaluation, projection, subspace,
               synth, trajectory)
