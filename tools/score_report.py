"""Print the scores a checkout produces, so two checkouts can be diffed.

    python3 tools/score_report.py <checkout> > report.txt
    python3 tools/score_report.py <checkout> --seeds 101 102 --steps 20000 --tables

The report runs in a fresh interpreter with one BLAS thread, importing `rpe`
from `<checkout>/src` and the stream inputs from `<checkout>/bench/inputs.py`.
For each seed it streams the benchmark's `stream-long` series: the default
detector trained on 300 clean stamps, then `--steps` stamps with 1 % point
anomalies. A step that raises is recorded with its position and exception
type, scores -inf, and the detector is retrained on the last 300 raw stamps,
as the benchmark does. Per seed it prints the SHA-256 of `abs_residual` (with
-inf at failed steps), its largest finite value, the RuntimeWarnings raised,
the robust projections made and how many of them went to the QR solve of the
kept rows, and the failed steps. Then it runs the README's CLI workflow on
the seed's `cli-workflow` inputs (2 000 training stamps, then
min(`--steps`, 20 000) scored stamps, the config of CLI_CONFIG): train,
coherence, detect warm and cold, spe, rpe with n_s = 0, ar and iid, and the
two usage errors of detect. Each command prints one line: its exit code and
the SHA-256 of its stdout, its stderr and every file it writes (commands run
in a scratch directory with relative paths, so the bytes do not depend on
where it lies). Then, for every table named by `--tables`, it
prints each method's mean F1 in `rpe bench`, the QR solves of the table, and
the SHA-256 of its per-run PR curve CSVs (`--emit-curves`), each file's name
and bytes in sorted name order, so a bit changed in any run's scores shows
even where the mean F1 hides it. Every float is printed with repr, so any
change of a bit shows in the diff.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

TRAIN_LEN = 300  # stream-long's training stamps, also the restart window
ANOMALY_SHARE = 0.01
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
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", help="root of the rpe checkout to score")
    parser.add_argument("--seeds", type=int, nargs="*", default=list(range(10)),
                        help="stream-long seeds (default 0-9; none: skip)")
    parser.add_argument("--steps", type=int, default=100_000,
                        help="stamps streamed per seed (default 100000)")
    parser.add_argument("--tables", nargs="*", default=["table1", "table2", "table3", "table4"],
                        help="rpe bench scenarios to report (none: skip)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


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

    for seed in args.seeds:
        counts.clear()
        values, _ = inputs.make_series(seed, TRAIN_LEN + args.steps, TRAIN_LEN, ANOMALY_SHARE)
        train, stream = values[:TRAIN_LEN], values[TRAIN_LEN:]
        abs_residual = np.full(args.steps, -np.inf)
        failures = []
        with counted_runtime_warnings() as caught:
            state = detector.train(train)
            for i, value in enumerate(stream.tolist()):
                try:
                    abs_residual[i] = detector.step(state, value).abs_residual
                except Exception as exc:  # a failed step is reported, not fatal
                    failures.append(f"{i}:{type(exc).__name__}")
                    recent = np.concatenate([train, stream[: i + 1]])[-TRAIN_LEN:]
                    state = detector.train(recent)
        finite = abs_residual[np.isfinite(abs_residual)]
        print(f"stream-long seed {seed}: sha256 {inputs.digest(abs_residual)}"
              f" max_abs_residual {float(finite.max()) if finite.size else None!r}"
              f" runtime_warnings {sum(caught.values())}"
              f" projections {counts['projections']} qr_solves {counts['qr_solves']}"
              f" failed {len(failures)} at [{' '.join(failures)}]")
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
