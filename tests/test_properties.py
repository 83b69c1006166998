"""Property-based tests over randomly generated inputs.

Four invariants, each exercised over a thousand generated cases: the
embedding round-trip, rotation invariance of the coherence statistic,
agreement of the best-F1 search with brute-force enumeration, and seeded
reproducibility of the synthetic generator. A fifth checks that the residual
memory's empirical CDF stays exact over long append sequences full of ties.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rpe.coherence import mu_squared
from rpe.detector import ResidualMemory
from rpe.errors import CannotPlace
from rpe.evaluation import max_f1
from rpe.synth import AnomalySpec, SynthSpec, generate_clean, inject_anomalies
from reference import trajectory_to_series
from rpe.trajectory import TimeSeries, build_trajectory

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def series_and_window(draw):
    values = draw(st.lists(finite, min_size=1, max_size=60))
    window = draw(st.integers(min_value=1, max_value=len(values)))
    return np.asarray(values, dtype=float), window


@settings(max_examples=1000, deadline=None)
@given(series_and_window())
def test_embedding_round_trip(case):
    values, window = case
    matrix = build_trajectory(TimeSeries(values=values), window)
    recovered = trajectory_to_series(matrix)
    np.testing.assert_array_equal(recovered, values)
    # Every column is the corresponding sliding window.
    n_cols = values.size - window + 1
    assert matrix.shape == (window, n_cols)
    for j in (0, n_cols - 1):
        np.testing.assert_array_equal(matrix[:, j], values[j : j + window])


@settings(max_examples=1000, deadline=None)
@given(
    m1=st.integers(min_value=2, max_value=40),
    r_raw=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_coherence_is_rotation_invariant(m1, r_raw, seed):
    r = min(r_raw, m1)
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((m1, r)))
    rotation, _ = np.linalg.qr(rng.standard_normal((r, r)))
    base = mu_squared(u)
    rotated = mu_squared(u @ rotation)
    assert abs(base - rotated) <= 1e-10
    assert 1.0 / m1 - 1e-12 <= base <= 1.0 + 1e-12


@st.composite
def scored_labels(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    # A small score alphabet forces ties between stamps.
    scores = draw(
        st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]),
                 min_size=n, max_size=n)
    )
    labels = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    assume(any(labels))
    return np.asarray(scores), np.asarray(labels)


@settings(max_examples=1000, deadline=None)
@given(scored_labels())
def test_best_f1_matches_exhaustive_enumeration(case):
    scores, labels = case
    positives = labels.sum()
    best = 0.0
    for threshold in np.unique(scores):
        predicted = scores >= threshold
        tp = float((predicted & labels).sum())
        if predicted.sum() == 0 or tp == 0:
            f1 = 0.0
        else:
            precision = tp / predicted.sum()
            recall = tp / positives
            f1 = 2.0 * precision * recall / (precision + recall)
        best = max(best, f1)
    point = max_f1(scores, labels)
    assert point.f1 == pytest.approx(best, abs=1e-12)
    # The reported operating point is self-consistent.
    predicted = scores >= point.threshold
    tp = float((predicted & labels).sum())
    assert point.precision == pytest.approx(tp / predicted.sum(), abs=1e-12)
    assert point.recall == pytest.approx(tp / positives, abs=1e-12)


@settings(max_examples=1000, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    length=st.integers(min_value=100, max_value=300),
    sigma=st.sampled_from([0.0, 0.1, 1.0]),
    fraction=st.sampled_from([0.02, 0.04, 0.1]),
    run_length=st.integers(min_value=1, max_value=3),
)
def test_generation_and_injection_are_seed_deterministic(
    seed, length, sigma, fraction, run_length
):
    spec = SynthSpec(length=length, seed=seed, noise_sigma=sigma)
    first = generate_clean(spec)
    second = generate_clean(spec)
    np.testing.assert_array_equal(first.values, second.values)

    anomaly = AnomalySpec(
        fraction=fraction,
        run_length=run_length,
        seed=seed,
        protect_prefix=length // 2,
    )
    try:
        injected_a = inject_anomalies(first, anomaly)
    except CannotPlace:
        assume(False)
    injected_b = inject_anomalies(second, anomaly)
    np.testing.assert_array_equal(injected_a.values, injected_b.values)
    np.testing.assert_array_equal(injected_a.labels, injected_b.labels)
    # Labels mark exactly the changed stamps.
    changed = injected_a.values != first.values
    assert not changed[~injected_a.labels].any()


# Residual magnitudes: a few tied values, the extremes, NaN (an overflowed
# reconstruction) and arbitrary floats.
magnitudes = st.sampled_from(
    [0.0, 0.5, 1.0, 2.0, 5e-324, 1e300, float("inf"), float("nan")]
) | st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(
    block=st.lists(magnitudes, min_size=1, max_size=40),
    repeats=st.integers(min_value=1, max_value=120),
    cap=st.none() | st.integers(min_value=1, max_value=8) | st.integers(min_value=1000, max_value=3000),
)
def test_residual_memory_cdf_is_exact(block, repeats, cap):
    # Repeating a block gives thousands of entries with many ties, enough to
    # fold the pending values into the sorted array more than once and to
    # evict merged values; every 500th append checks the ranks mid-stream.
    appended = block * repeats
    memory = ResidualMemory(cap=cap)
    probes = list(set(block)) + [-1.0, 0.25, 3.0, float("inf")]
    for n, value in enumerate(appended, start=1):
        memory.append(value)
        if n <= 2 * len(block) or n % 500 == 0 or n == len(appended):
            kept = appended[:n][-cap:] if cap else appended[:n]
            assert memory.values() == tuple(kept)
            assert len(memory) == len(kept)
            for q in probes:
                assert memory.cdf(q) == sum(v < q for v in kept) / len(kept)
