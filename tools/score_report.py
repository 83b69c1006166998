"""Print the scores a checkout produces, so two checkouts can be diffed.

    python3 tools/score_report.py <checkout> > report.txt
    python3 tools/score_report.py <checkout> --seeds 101 102 --steps 20000 --tables none

The report runs in a fresh interpreter with one BLAS thread, importing `rpe`
from `<checkout>/src` and the stream inputs from `<checkout>/bench/inputs.py`.
For each seed it streams the benchmark's `stream-long` series: the default
detector trained on 300 clean stamps, then `--steps` stamps with 1 % point
anomalies. A step that raises is recorded with its position and exception
type, scores -inf, and the detector is retrained on the last 300 raw stamps,
as the benchmark does. Per seed it prints the SHA-256 of `abs_residual` (with
-inf at failed steps), its largest finite value, the RuntimeWarnings raised,
the robust projections made and how many of them went to the QR solve of the
kept rows, and the failed steps. Then it streams the benchmark's
`stream-fleet` series of the seed: series S + i for i in 0-7, each trained on
150 clean stamps with the estimator simple, elementwise or columnwise (i mod
3), then min(`--steps`, 5 000) stamps, each series on its own, with the same
restart on a failed step. It prints the SHA-256 of the 8 `abs_residual`
vectors, the refits (steps after which the state holds a new model), the
RuntimeWarnings, the projections, the QR solves and the failed steps, as
`series.step`. Unlike the `stream-long` series, these refit, at step 100.
Then it runs the README's CLI workflow on the seed's `cli-workflow` inputs
(2 000 training stamps, then min(`--steps`, 20 000) scored stamps, the config
of CLI_CONFIG): train, coherence, detect warm and cold, spe, rpe with
n_s = 0, ar and iid, and the two usage errors of detect. Each command prints one line: its exit code and
the SHA-256 of its stdout, its stderr and every file it writes (commands run
in a scratch directory with relative paths, so the bytes do not depend on
where it lies). Then, for every table named by `--tables` (default table1-4;
`none` runs no table), it prints each method's mean F1 in `rpe bench`, the QR
solves of the table, and the SHA-256 of its per-run PR curve CSVs
(`--emit-curves`), each file's name and bytes in sorted name order, so a bit
changed in any run's scores shows even where the mean F1 hides it. Every
float is printed with repr, so any change of a bit shows in the diff.

The first line checks the public `rpe.projection.robust_projection` on its
own. It calls it on fixed seeded windows: M1 of 5, 10, 30 and 60, ranks 1, 3
and 10 (capped at M1 - 1), every feasible n_s, some coherent bases, spikes up
to 1e300 (up to n_s + 2 of them), and a NaN or infinity in about 2 % of the
windows; every fourth call runs with `DOWNDATE_FLOOR` at infinity, which
sends each n_s >= 1 window to the QR solve. It prints the calls, the raises
and the QR solves, the SHA-256 of each result field, read by name, and the
SHA-256 of every raise's type, message and row.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

TRAIN_LEN = 300  # stream-long's training stamps, also the restart window
ANOMALY_SHARE = 0.01
FLEET_SERIES = 8  # stream-fleet's series, seeds S to S + 7
FLEET_TRAIN_LEN = 150  # stream-fleet's training stamps
FLEET_MAX_STEPS = 5_000  # stream-fleet's scored stamps
FLEET_ESTIMATORS = ("simple", "elementwise", "columnwise")  # series i gets i mod 3
CLI_TRAIN_LEN = 2_000  # cli-workflow's training stamps
CLI_MAX_STEPS = 20_000  # cli-workflow's scored stamps
CLI_CONFIG = {"estimator": "columnwise", "memory_cap": 200}
_DETECT = ["detect", "--input", "series.csv", "--config", "config.json"]
CLI_COMMANDS = {
    "train": ["train", "--input", "train.csv", "--config", "config.json",
              "--output", "model.json"],
    "coherence": ["coherence", "--input", "train.csv", "--config", "config.json"],
    "detect_warm": _DETECT + ["--model", "model.json", "--train", "train.csv",
                              "--output", "warm.csv"],
    "detect_cold": _DETECT + ["--model", "model.json", "--output", "cold.csv"],
    "detect_spe": _DETECT + ["--method", "spe", "--model", "model.json",
                             "--train", "train.csv", "--output", "spe.csv"],
    "detect_n_s0": ["detect", "--input", "series.csv", "--config", "n_s0.json",
                    "--model", "model.json", "--train", "train.csv", "--output", "n_s0.csv"],
    "detect_ar": _DETECT + ["--method", "ar", "--train", "train.csv", "--output", "ar.csv"],
    "detect_iid": _DETECT + ["--method", "iid", "--train", "train.csv", "--output", "iid.csv"],
    "error_no_model": _DETECT + ["--output", "no_model.csv"],
    "error_no_train": _DETECT + ["--method", "ar", "--output", "no_train.csv"],
}
TABLES = ("table1", "table2", "table3", "table4")
PROJECTION_M1 = (5, 10, 30, 60)
PROJECTION_REPEATS = 20  # windows per (M1, rank, n_s)
PROJECTION_FIELDS = ("a_hat", "kept_rows", "residual", "prelim_residual")
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", help="root of the rpe checkout to score")
    parser.add_argument("--seeds", type=int, nargs="*", default=list(range(10)),
                        help="stream-long seeds (default 0-9; none: skip)")
    parser.add_argument("--steps", type=int, default=100_000,
                        help="stamps streamed per seed (default 100000)")
    parser.add_argument("--tables", nargs="+", default=list(TABLES), choices=TABLES + ("none",),
                        help="rpe bench scenarios to report (default all four; none: skip)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if "none" in args.tables:
        if len(args.tables) > 1:
            parser.error("--tables none takes no table names")
        args.tables = []
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if args.child:
        return report(args)
    checkout = Path(args.checkout).resolve()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
    child = [sys.executable, str(Path(__file__).resolve()), "--child", *argv]
    return subprocess.run(child, env=env).returncode


def report(args) -> int:
    checkout = Path(args.checkout).resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import numpy as np

    import inputs
    import rpe
    import rpe.cli
    from rpe import detector, projection

    if not Path(rpe.__file__).resolve().is_relative_to(checkout):
        raise SystemExit(f"rpe imported from {rpe.__file__}, not from {checkout}")

    counts = Counter()
    project, kept_row_solve = detector.robust_projection, projection._kept_row_solve

    def counted_projection(*a):
        counts["projections"] += 1
        return project(*a)

    def counted_kept_row_solve(*a):
        counts["qr_solves"] += 1
        return kept_row_solve(*a)

    detector.robust_projection = counted_projection
    projection._kept_row_solve = counted_kept_row_solve

    projection_report(np, projection, counts)

    for seed in args.seeds:
        counts.clear()
        values, _ = inputs.make_series(seed, TRAIN_LEN + args.steps, TRAIN_LEN, ANOMALY_SHARE)
        with counted_runtime_warnings() as caught:
            abs_residual, failures, _ = stream_series(
                np, detector, values[:TRAIN_LEN], values[TRAIN_LEN:], detector.DetectorConfig())
        finite = abs_residual[np.isfinite(abs_residual)]
        print(f"stream-long seed {seed}: sha256 {inputs.digest(abs_residual)}"
              f" max_abs_residual {float(finite.max()) if finite.size else None!r}"
              f" runtime_warnings {sum(caught.values())}"
              f" projections {counts['projections']} qr_solves {counts['qr_solves']}"
              f" failed {len(failures)} at [{' '.join(failures)}]")
        fleet_report(seed, min(args.steps, FLEET_MAX_STEPS), np, detector, inputs, counts)
        cli_report(seed, min(args.steps, CLI_MAX_STEPS), rpe.cli, inputs)

    for table in args.tables:
        counts.clear()
        with tempfile.TemporaryDirectory() as tmp:
            out, curves = Path(tmp) / "report.json", Path(tmp) / "curves"
            with contextlib.redirect_stdout(io.StringIO()):
                rpe.cli.main(["bench", "--scenario", table, "--out", str(out),
                              "--emit-curves", str(curves)])
            methods = json.loads(out.read_text())["methods"]
            curve_digest = hashlib.sha256()
            for path in sorted(curves.iterdir()):
                curve_digest.update(path.name.encode() + b"\n" + path.read_bytes())
        print(f"bench {table}: " + " ".join(f"{m}={s['mean_f1']!r}" for m, s in methods.items())
              + f" qr_solves {counts['qr_solves']} curves_sha256 {curve_digest.hexdigest()}")
    return 0


def stream_series(np, detector, train, stream, config):
    """Train on train, then step through stream as the benchmark does.

    Returns abs_residual (-inf at a failed step), the failed steps as
    "step:exception type", and the refits: the steps after which the state
    holds a new model. A failed step retrains on the last TRAIN_LEN raw
    stamps.
    """
    abs_residual = np.full(stream.size, -np.inf)
    failures, refits = [], 0
    state = detector.train(train, config)
    for i, value in enumerate(stream.tolist()):
        model = state.model
        try:
            abs_residual[i] = detector.step(state, value).abs_residual
        except Exception as exc:  # a failed step is reported, not fatal
            failures.append(f"{i}:{type(exc).__name__}")
            recent = np.concatenate([train, stream[: i + 1]])[-TRAIN_LEN:]
            state = detector.train(recent, config)
            continue
        refits += state.model is not model
    return abs_residual, failures, refits


def fleet_report(seed: int, steps: int, np, detector, inputs, counts) -> None:
    """Stream the seed's stream-fleet series one after another and print one
    digest line."""
    counts.clear()
    residuals, failures, refits = [], [], 0
    with counted_runtime_warnings() as caught:
        for i in range(FLEET_SERIES):
            values, _ = inputs.make_series(seed + i, FLEET_TRAIN_LEN + steps, FLEET_TRAIN_LEN,
                                           ANOMALY_SHARE)
            config = detector.DetectorConfig(estimator=FLEET_ESTIMATORS[i % len(FLEET_ESTIMATORS)])
            abs_residual, failed, refitted = stream_series(
                np, detector, values[:FLEET_TRAIN_LEN], values[FLEET_TRAIN_LEN:], config)
            residuals.append(abs_residual)
            failures += [f"{i}.{step}" for step in failed]
            refits += refitted
    print(f"stream-fleet seed {seed}: sha256 {inputs.digest(*residuals)} refits {refits}"
          f" runtime_warnings {sum(caught.values())}"
          f" projections {counts['projections']} qr_solves {counts['qr_solves']}"
          f" failed {len(failures)} at [{' '.join(failures)}]")


def projection_report(np, projection, counts) -> None:
    """Call robust_projection on the fixed windows of the module docstring and
    print one digest line."""
    digests = {name: hashlib.sha256() for name in PROJECTION_FIELDS + ("raises",)}
    rng = np.random.default_rng(2026)
    floor = projection.DOWNDATE_FLOOR
    counts.clear()
    raised = 0
    try:
        with np.errstate(all="ignore"):
            for call, (m1, rank, n_s) in enumerate(projection_cases()):
                u, x = projection_window(np, rng, m1, rank, n_s)
                projection.DOWNDATE_FLOOR = math.inf if call % 4 == 3 else floor
                try:
                    result = projection.robust_projection(u, x, n_s)
                except Exception as exc:  # a raise is reported, not fatal
                    raised += 1
                    digests["raises"].update(f"{call + 1} {type(exc).__name__} {exc}"
                                             f" {getattr(exc, 'index', None)}\n".encode())
                    continue
                for name in PROJECTION_FIELDS:
                    value = np.asarray(getattr(result, name))
                    digests[name].update(f"{value.dtype.str} {value.shape}\n".encode()
                                         + value.tobytes())
    finally:
        projection.DOWNDATE_FLOOR = floor
    print(f"projection: calls {call + 1} raised {raised} qr_solves {counts['qr_solves']}"
          + "".join(f" {name} {digest.hexdigest()}" for name, digest in digests.items()))


def projection_cases():
    """(M1, rank, n_s) of every call: ranks 1, 3 and 10 capped at M1 - 1, every
    feasible n_s, PROJECTION_REPEATS windows each."""
    for m1 in PROJECTION_M1:
        for rank in sorted({1, min(3, m1 - 1), min(10, m1 - 1)}):
            for n_s in range(m1 - rank + 1):
                yield from [(m1, rank, n_s)] * PROJECTION_REPEATS


def projection_window(np, rng, m1: int, rank: int, n_s: int):
    """A seeded orthonormal basis (coherent one time in four) and a window in
    its span with noise, spikes and now and then a NaN or infinity."""
    raw = rng.standard_normal((m1, rank))
    if rng.random() < 0.25:
        rows = rng.choice(m1, rng.integers(1, 4), replace=False)
        raw[rows] *= rng.uniform(2.0, 20.0, rows.size)[:, None]
    u, _ = np.linalg.qr(raw)
    x = u @ rng.standard_normal(rank) + 0.05 * rng.standard_normal(m1)
    k = rng.integers(0, min(n_s + 2, m1) + 1)
    rows = rng.choice(m1, k, replace=False)
    x[rows] += rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(0.0, 300.0, k)
    if rng.random() < 0.02:
        x[rng.integers(m1)] = rng.choice([np.nan, np.inf, -np.inf])
    return u, x


def cli_report(seed: int, steps: int, cli, inputs) -> None:
    """Run CLI_COMMANDS in a scratch directory and print one digest line each."""
    values, labels = inputs.make_series(seed, CLI_TRAIN_LEN + steps, CLI_TRAIN_LEN, ANOMALY_SHARE)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            inputs.write_series_csv("train.csv", values[:CLI_TRAIN_LEN], labels[:CLI_TRAIN_LEN])
            inputs.write_series_csv("series.csv", values[CLI_TRAIN_LEN:], labels[CLI_TRAIN_LEN:])
            Path("config.json").write_text(json.dumps(CLI_CONFIG))
            Path("n_s0.json").write_text(json.dumps({**CLI_CONFIG, "n_s": 0}))
            for name, argv in CLI_COMMANDS.items():
                before = file_digests()
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(argv)
                written = sorted(f"{path} {digest}" for path, digest in file_digests().items()
                                 if before.get(path) != digest)
                print(f"cli seed {seed} {name}: exit {code}"
                      f" stdout {sha256(out.getvalue().encode())}"
                      f" stderr {sha256(err.getvalue().encode())}"
                      + "".join(f" {entry}" for entry in written))
        finally:
            os.chdir(home)


def file_digests() -> dict[str, str]:
    return {path.name: sha256(path.read_bytes()) for path in Path.cwd().iterdir()}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextlib.contextmanager
def counted_runtime_warnings():
    """Count RuntimeWarnings (numpy overflow and the like) instead of printing them."""
    caught = Counter()
    with warnings.catch_warnings():
        warnings.simplefilter("always", RuntimeWarning)
        shown = warnings.showwarning

        def show(message, category, filename, lineno, file=None, line=None):
            if issubclass(category, RuntimeWarning):
                caught[str(message)[:100]] += 1
            else:
                shown(message, category, filename, lineno, file, line)

        warnings.showwarning = show
        yield caught


if __name__ == "__main__":
    sys.exit(main())
