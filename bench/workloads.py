"""The four workloads: inputs, set-up, one timed pass, and output checks.

Every workload is a closed loop driven by one caller in one thread: the next
value (or CLI command) is sent only after the previous call has returned.
Step latencies come from the StepClock around `rpe.detector.step`, which the
runner installs; a pass reports what the program produced and how long the
streaming part took.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from inputs import digest, make_series, write_series_csv
from tracing import state_sizes

SIZES = {
    "full": {
        "long_train": 300, "long_steps": 100_000,
        "fleet_series": 8, "fleet_train": 150, "fleet_steps": 5_000,
        "tables": ("table1", "table2", "table3", "table4"),
        "cli_train": 2_000, "cli_steps": 20_000,
        "setup_probes": 5,
    },
    # For the benchmark's own tests: every code path, a few seconds in all.
    "tiny": {
        "long_train": 300, "long_steps": 1_500,
        "fleet_series": 8, "fleet_train": 150, "fleet_steps": 200,
        "tables": ("table1",),
        "cli_train": 400, "cli_steps": 600,
        "setup_probes": 1,
    },
}
ANOMALY_SHARE = 0.01
RESTART_WINDOW = 300
FLEET_ESTIMATORS = ("simple", "elementwise", "columnwise")
# memory_cap below the 271 replayed training windows: every step evicts.
CLI_CONFIG = {"estimator": "columnwise", "memory_cap": 200}
CLI_THRESHOLD = 0.95  # DetectorConfig's default cdf_threshold
CLI_M1 = 30  # DetectorConfig's default window length
TABLE_STREAM_LEN = 200  # stamps streamed per run of a table scenario
# Best-F1 per method from the README's benchmark table, to 3 decimals.
README_F1 = {
    "table1": {"rpe": "1.000", "spe": "0.970", "iid": "0.681", "ar": "0.906"},
    "table2": {"rpe": "0.979", "spe": "0.976", "iid": "0.318", "ar": "0.886"},
    "table3": {"rpe": "0.993", "spe": "0.794", "iid": "0.473", "ar": "0.616"},
    "table4": {"rpe": "0.912", "spe": "0.604", "iid": "0.504", "ar": "0.479"},
}
FAILURES_KEPT = 20


@dataclass
class PassResult:
    """What one timed pass produced; times in seconds."""

    wall_s: float = 0.0
    stream_s: float = 0.0
    scored: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    restarts: int = 0
    best_f1: float = math.nan
    cli_s: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)  # failed output checks
    outputs: str = ""  # digest of the scores, equal on every pass
    failed: int = 0
    failure_types: Counter = field(default_factory=Counter)
    detail: dict = field(default_factory=dict)

    def fail(self, op: str, where, exc: BaseException | str) -> None:
        kind = exc if isinstance(exc, str) else type(exc).__name__
        self.failed += 1
        self.failure_types[kind.split(":")[0]] += 1
        if len(self.failures) < FAILURES_KEPT:
            self.failures.append({"op": op, "at": where, "type": kind, "message": str(exc)[:200]})


@contextlib.contextmanager
def counted_runtime_warnings():
    """Count RuntimeWarnings (numpy overflow and the like) instead of printing them."""
    counts: Counter = Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("always", RuntimeWarning)
        shown = warnings.showwarning

        def show(message, category, filename, lineno, file=None, line=None):
            if issubclass(category, RuntimeWarning):
                counts[str(message)[:100]] += 1
            else:
                shown(message, category, filename, lineno, file, line)

        warnings.showwarning = show
        yield counts


def best_f1(scores: np.ndarray, labels: np.ndarray) -> float:
    """Best F1 over every threshold 'score >= t'; non-finite-low scores never win.

    F1 = 2 TP / (predicted + positives) at each distinct score, taking the
    last position of each run of equal scores so ties enter together.
    """
    scores = np.where(np.isnan(scores), -np.inf, scores)
    positives = int(labels.sum())
    if positives == 0:
        return math.nan
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    true_pos = np.cumsum(labels[order])
    predicted = np.arange(1, ranked.size + 1)
    last = np.append(ranked[1:] != ranked[:-1], True)
    return float(np.max(2.0 * true_pos[last] / (predicted[last] + positives)))


# -- streams ---------------------------------------------------------------

@dataclass
class Feed:
    """One series a stream workload sends to one detector."""

    seed: int
    train: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    config: object


def stream(feeds: list[Feed], states: list, detector, result: PassResult) -> None:
    """Send every feed's values round-robin, one step at a time.

    A step that raises is one failed operation. The feed's detector is then
    rebuilt with `train` on its last RESTART_WINDOW raw input stamps and the
    stream carries on, so every commit attempts the same steps.
    The sizes of the first feed's state are recorded every tenth of the stream.
    """
    n = len(feeds[0].values)
    values = [feed.values.tolist() for feed in feeds]
    residual = [np.full(n, np.nan) for _ in feeds]
    abs_residual = [np.full(n, -np.inf) for _ in feeds]
    cdf = [np.zeros(n) for _ in feeds]
    flagged = [np.zeros(n, dtype=bool) for _ in feeds]
    replaced = [np.zeros(n, dtype=bool) for _ in feeds]
    ok = [np.zeros(n, dtype=bool) for _ in feeds]
    next_index = [len(feed.train) for feed in feeds]
    index_errors = 0
    growth, tenth = [], max(1, n // 10)
    step, train = detector.step, detector.train

    start = perf_counter()
    for i in range(n):
        for k, state in enumerate(states):
            try:
                record = step(state, values[k][i])
            except Exception as exc:  # the program's failure: count it, rebuild, go on
                result.fail("step", {"feed": k, "step": i}, exc)
                feed = feeds[k]
                recent = np.concatenate([feed.train, feed.values[: i + 1]])[-RESTART_WINDOW:]
                states[k] = train(recent, feed.config)
                next_index[k] = recent.size
                result.restarts += 1
                continue
            if record.index != next_index[k]:
                index_errors += 1
            next_index[k] = record.index + 1
            residual[k][i] = record.residual
            abs_residual[k][i] = record.abs_residual
            cdf[k][i] = record.cdf_score
            flagged[k][i] = record.flagged
            replaced[k][i] = record.replaced_value is not None
            ok[k][i] = True
        if (i + 1) % tenth == 0:
            growth.append({"step": i + 1, **state_sizes(states[0])})
    result.stream_s = result.wall_s = perf_counter() - start
    result.attempted = n * len(feeds)

    if index_errors:
        result.errors.append(f"{index_errors} records carry a non-consecutive index")
    summaries = []
    for k, feed in enumerate(feeds):
        good = ok[k]
        threshold = feed.config.cdf_threshold
        if not np.all((cdf[k][good] >= 0.0) & (cdf[k][good] <= 1.0)):
            result.errors.append(f"feed {k}: cdf_score outside [0, 1]")
        if not np.array_equal(flagged[k][good], cdf[k][good] > threshold):
            result.errors.append(f"feed {k}: flagged differs from cdf_score > {threshold}")
        if np.any(replaced[k] & ~flagged[k]):
            result.errors.append(f"feed {k}: a value was replaced without a flag")
        if not np.array_equal(abs_residual[k][good], np.abs(residual[k][good]), equal_nan=True):
            result.errors.append(f"feed {k}: abs_residual differs from |residual|")
        result.scored += int(good.sum())
        finite = abs_residual[k][good & np.isfinite(abs_residual[k])]
        summaries.append({
            "seed": feed.seed,
            "estimator": feed.config.estimator,
            "scored": int(good.sum()),
            "flag_rate": float(flagged[k].sum() / max(1, good.sum())),
            "best_f1": best_f1(abs_residual[k], feed.labels),
            "max_abs_residual": float(finite.max()) if finite.size else math.nan,
            "non_finite_residuals": int(good.sum() - finite.size),
        })
    result.outputs = digest(*abs_residual)
    result.best_f1 = float(np.mean([s["best_f1"] for s in summaries]))
    result.detail["series"] = summaries
    result.detail["state_growth"] = growth


class StreamLong:
    name = "stream-long"

    def inputs(self, seed: int, size: dict) -> dict:
        train_len, steps = size["long_train"], size["long_steps"]
        values, labels = make_series(seed, train_len + steps, train_len, ANOMALY_SHARE)
        return {"seeds": [seed], "train_len": train_len, "values": [values], "labels": [labels],
                "estimators": ["simple"], "sha256": digest(values, labels)}

    def setup(self, rpe, inputs: dict) -> tuple[list[Feed], list]:
        n = inputs["train_len"]
        feeds = [Feed(seed, values[:n], values[n:], labels[n:],
                      rpe.detector.DetectorConfig(estimator=estimator))
                 for seed, values, labels, estimator in zip(
                     inputs["seeds"], inputs["values"], inputs["labels"], inputs["estimators"])]
        return feeds, [rpe.detector.train(feed.train, feed.config) for feed in feeds]

    def run_pass(self, rpe, inputs, prepared, workdir) -> PassResult:
        feeds, states = prepared
        result = PassResult()
        stream(feeds, states, rpe.detector, result)
        return result


class StreamFleet(StreamLong):
    name = "stream-fleet"

    def inputs(self, seed: int, size: dict) -> dict:
        train_len, steps = size["fleet_train"], size["fleet_steps"]
        seeds = [seed + i for i in range(size["fleet_series"])]
        pairs = [make_series(s, train_len + steps, train_len, ANOMALY_SHARE) for s in seeds]
        return {"seeds": seeds, "train_len": train_len,
                "values": [v for v, _ in pairs], "labels": [lab for _, lab in pairs],
                "estimators": [FLEET_ESTIMATORS[i % len(FLEET_ESTIMATORS)]
                               for i in range(len(seeds))],
                "sha256": digest(*[a for pair in pairs for a in pair])}


# -- CLI -------------------------------------------------------------------

def run_cli(cli, argv: list[str], result: PassResult, op: str) -> tuple[bool, str, float]:
    """Run `rpe.cli.main(argv)` in-process; a non-zero exit or a raise is one failure."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:  # the program's failure: count it
        code = exc
    elapsed = perf_counter() - start
    if code != 0:
        problem = code if isinstance(code, Exception) else f"exit {code}: {err.getvalue().strip()}"
        result.fail(op, argv[0], problem)
    return code == 0, out.getvalue(), elapsed


def table_f1_errors(f1: dict[str, dict[str, float]]) -> list[str]:
    """Mismatches between measured table F1 values and the README, at 3 decimals."""
    errors = []
    for table, measured in f1.items():
        expected = README_F1[table]
        for method, want in expected.items():
            got = measured.get(method)
            if got is None or f"{got:.3f}" != want:
                errors.append(f"{table} {method}: F1 {got!r} differs from README {want}")
    return errors


class BenchTables:
    name = "bench-tables"

    def inputs(self, seed: int, size: dict) -> dict:
        # The scenarios fix their own seeds so that the README table holds;
        # the seed argument therefore does not change this workload.
        tables = size["tables"]
        return {"tables": tables, "sha256": digest(*tables)}

    def setup(self, rpe, inputs):
        return None

    def run_pass(self, rpe, inputs, prepared, workdir: Path) -> PassResult:
        result = PassResult()
        f1 = {}
        for table in inputs["tables"]:
            out = workdir / f"{table}.json"
            ok, _, elapsed = run_cli(rpe.cli, ["bench", "--scenario", table, "--out", str(out)],
                                     result, "bench")
            result.attempted += 1
            result.wall_s += elapsed
            result.detail.setdefault("table_s", {})[table] = elapsed
            if not ok:
                continue
            report = json.loads(out.read_text())
            f1[table] = {m: s["mean_f1"] for m, s in report["methods"].items()}
            result.scored += sum(len(s["per_run"]) for s in report["methods"].values()) * TABLE_STREAM_LEN
        result.stream_s = result.wall_s
        result.errors += table_f1_errors(f1)
        if len(f1) < len(inputs["tables"]):
            result.errors.append("a bench command failed, so its table was not checked")
        if f1:
            result.best_f1 = float(np.mean([row["rpe"] for row in f1.values()]))
        result.outputs = json.dumps(f1, sort_keys=True)
        result.detail["table_f1"] = f1
        return result


class CliWorkflow:
    name = "cli-workflow"

    def inputs(self, seed: int, size: dict) -> dict:
        train_len, steps = size["cli_train"], size["cli_steps"]
        values, labels = make_series(seed, train_len + steps, train_len, ANOMALY_SHARE)
        return {"train": values[:train_len], "train_labels": labels[:train_len],
                "values": values[train_len:], "labels": labels[train_len:],
                "sha256": digest(values, labels, json.dumps(CLI_CONFIG, sort_keys=True))}

    def write_files(self, inputs: dict, workdir: Path) -> None:
        write_series_csv(workdir / "train.csv", inputs["train"], inputs["train_labels"])
        write_series_csv(workdir / "series.csv", inputs["values"], inputs["labels"])
        (workdir / "config.json").write_text(json.dumps(CLI_CONFIG))

    def setup(self, rpe, inputs):
        return None

    def run_pass(self, rpe, inputs, prepared, workdir: Path) -> PassResult:
        result = PassResult()
        f = {name: str(workdir / name) for name in
             ("train.csv", "series.csv", "config.json", "model.json", "rpe.csv", "ar.csv")}
        commands = {
            "train": ["train", "--input", f["train.csv"], "--config", f["config.json"],
                      "--output", f["model.json"]],
            "coherence": ["coherence", "--input", f["train.csv"], "--config", f["config.json"]],
            "detect": ["detect", "--model", f["model.json"], "--train", f["train.csv"],
                       "--input", f["series.csv"], "--config", f["config.json"],
                       "--output", f["rpe.csv"]],
            "detect_ar": ["detect", "--method", "ar", "--train", f["train.csv"],
                          "--input", f["series.csv"], "--config", f["config.json"],
                          "--output", f["ar.csv"]],
        }
        ok, stdout = {}, {}
        for op, argv in commands.items():
            ok[op], stdout[op], result.cli_s[op] = run_cli(rpe.cli, argv, result, op)
            result.attempted += 1
        result.wall_s = sum(result.cli_s.values())
        result.stream_s = result.cli_s["detect"] + result.cli_s["detect_ar"]

        if ok["train"]:
            result.errors += check_model(Path(f["model.json"]))
        if ok["coherence"]:
            result.errors += check_coherence(stdout["coherence"])
        scores = {}
        for op, name in (("detect", "rpe.csv"), ("detect_ar", "ar.csv")):
            if ok[op]:
                columns, errors = check_scores(Path(f[name]), inputs["values"], CLI_THRESHOLD)
                result.errors += [f"{op}: {e}" for e in errors]
                scores[op] = columns
                result.scored += len(columns["residual"])
        if "detect" in scores:
            result.best_f1 = best_f1(np.abs(scores["detect"]["residual"]), inputs["labels"])
        result.outputs = digest(*[scores[op]["residual"] for op in sorted(scores)])
        return result


def check_model(path: Path) -> list[str]:
    """The model file holds an M1 x r basis with orthonormal columns."""
    payload = json.loads(path.read_text())
    m1, r = int(payload["M1"]), int(payload["r"])
    basis = np.asarray(payload["U"], dtype=float)
    if basis.size != m1 * r:
        return [f"model: {basis.size} basis entries for M1={m1}, r={r}"]
    basis = basis.reshape(m1, r)
    err = float(np.max(np.abs(basis.T @ basis - np.eye(r))))
    return [] if err < 1e-8 else [f"model: columns deviate from orthonormal by {err:.2e}"]


def check_coherence(stdout: str) -> list[str]:
    """mu^2 lies in [1/M1, 1] for an M1-row basis; kappa = sqrt(mu^2) * gamma."""
    report = json.loads(stdout)
    mu2, gamma, kappa = report["mu_squared"], report["gamma_estimate"], report["kappa_estimate"]
    errors = []
    if not 1.0 / CLI_M1 - 1e-12 <= mu2 <= 1.0 + 1e-12:
        errors.append(f"coherence: mu_squared {mu2} outside [1/M1, 1]")
    if not (gamma > 0 and math.isclose(kappa, math.sqrt(mu2) * gamma, rel_tol=1e-9)):
        errors.append(f"coherence: kappa {kappa} is not sqrt(mu^2) * gamma {gamma}")
    return errors


def check_scores(path: Path, values: np.ndarray, threshold: float) -> tuple[dict, list[str]]:
    """A scores CSV has one row per input value, in order, with consistent flags."""
    rows = np.genfromtxt(path, delimiter=",", skip_header=1, dtype=float, ndmin=2)
    columns = {"index": rows[:, 0], "value": rows[:, 1], "residual": rows[:, 2],
               "cdf_score": rows[:, 3], "flagged": rows[:, 4].astype(bool)}
    errors = []
    if rows.shape[0] != values.size:
        return columns, [f"{rows.shape[0]} score rows for {values.size} inputs"]
    if not np.array_equal(columns["index"], np.arange(values.size)):
        errors.append("indices are not 0..n-1")
    if not np.array_equal(columns["value"], values):
        errors.append("values differ from the input file")
    cdf_ok = (columns["cdf_score"] >= 0.0) & (columns["cdf_score"] <= 1.0)
    if not cdf_ok.all():
        errors.append("cdf_score outside [0, 1]")
    if not np.array_equal(columns["flagged"], columns["cdf_score"] > threshold):
        errors.append(f"flagged differs from cdf_score > {threshold}")
    return columns, errors


WORKLOADS = {w.name: w for w in (StreamLong(), StreamFleet(), BenchTables(), CliWorkflow())}
