"""Streaming anomaly detection for univariate time series.

Sliding windows of the series are projected onto a learned low-rank
trajectory subspace; the projection excludes the most suspect window
coordinates before solving for coefficients, so a handful of corrupted
samples cannot contaminate the scores of their clean neighbours. Residual
magnitudes are ranked against a memory of past residuals to produce
threshold-free scores in [0, 1].
"""

from .baselines import (
    ArDetector,
    IidDetector,
    RpeDetector,
    SpeDetector,
    make_detector,
)
from .coherence import (
    CoherenceReport,
    coherence_report,
    gamma_estimate,
    mu_squared,
)
from .detector import (
    DetectorConfig,
    DetectorState,
    ResidualMemory,
    ScoreRecord,
    score_series,
    step,
    train,
    warm_start,
)
from .evaluation import (
    BenchmarkReport,
    MethodSummary,
    PrCurvePoint,
    Scenario,
    TABLE_SCENARIOS,
    max_f1,
    method_scores,
    pr_curve,
    run_labeled_series,
    run_scenario,
)
from .projection import (
    RobustProjectionResult,
    robust_projection,
    simple_projection,
)
from .subspace import (
    SubspaceModel,
    estimate_columnwise,
    estimate_elementwise,
    estimate_simple,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    select_rank,
)
from .synth import (
    AnomalySpec,
    SynthSpec,
    anomaly_scale,
    generate_clean,
    inject_anomalies,
)
from .trajectory import (
    TimeSeries,
    build_trajectory,
    read_csv,
    write_csv,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "ArDetector", "IidDetector", "RpeDetector", "SpeDetector",
    "make_detector",
    "CoherenceReport", "coherence_report", "gamma_estimate", "mu_squared",
    "DetectorConfig", "DetectorState", "ResidualMemory", "ScoreRecord",
    "score_series", "step", "train", "warm_start",
    "BenchmarkReport", "MethodSummary", "PrCurvePoint", "Scenario",
    "TABLE_SCENARIOS", "max_f1", "method_scores", "pr_curve",
    "run_labeled_series", "run_scenario",
    "RobustProjectionResult", "robust_projection", "simple_projection",
    "SubspaceModel", "estimate_columnwise", "estimate_elementwise",
    "estimate_simple", "load_model", "model_from_dict", "model_to_dict",
    "save_model", "select_rank",
    "AnomalySpec", "SynthSpec", "anomaly_scale", "generate_clean",
    "inject_anomalies",
    "TimeSeries", "build_trajectory", "read_csv", "write_csv",
    "errors",
]
