"""Print the scores a checkout produces, so two checkouts can be diffed.

    python3 tools/score_report.py <checkout> > report.txt
    python3 tools/score_report.py <checkout> --seeds 101 102 --steps 20000 --tables none

The report runs in a fresh interpreter with one BLAS thread, importing `rpe`
from `<checkout>/src` and the benchmark's workloads from
`<checkout>/bench/workloads.py`, which define every input, size and stream
loop used here. The size is the benchmark's `full` one, except that
`stream-long` scores `--steps` stamps (at least 1; default its own) and
`stream-fleet` and `cli-workflow` score at most that many. `--seeds` and
`--tables` each take one or more values, or `none` to skip them.

For each seed it runs one pass of `stream-long` and prints the SHA-256 of
`abs_residual` (with -inf at failed steps), its largest finite value, the
RuntimeWarnings raised, the robust projections made and how many of them went
to the QR solve of the kept rows, and the failed steps: their total, then the
ones the benchmark keeps, as `step:type`. Then one pass of `stream-fleet`
prints the same for all its series, plus the refits (steps after which the
state holds a new model), with the failed steps as `series.step:type`. A pass
whose records fail the benchmark's own checks prints them on stderr, and the
report exits 1. Then it runs the README's CLI workflow on the seed's
`cli-workflow` files: train, coherence, detect warm and cold, spe, rpe with
n_s = 0, ar and iid, and the two usage errors of detect. Each command prints
one line: its exit code and the SHA-256 of its stdout, its stderr and every
file it writes (commands run in a scratch directory with relative paths, so
the bytes do not depend on where it lies). Then, for every table named by
`--tables` (default the benchmark's full tables), it prints each method's
mean F1 in `rpe bench`, the QR solves of the table, and the SHA-256 of its
per-run PR curve CSVs (`--emit-curves`), each file's name and bytes in sorted
name order, so a bit changed in any run's scores shows even where the mean F1
hides it. Every float is printed with repr, so any change of a bit shows in
the diff.

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
from collections import Counter
from pathlib import Path

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
PROJECTION_M1 = (5, 10, 30, 60)
PROJECTION_REPEATS = 20  # windows per (M1, rank, n_s)
PROJECTION_FIELDS = ("a_hat", "kept_rows", "residual", "prelim_residual")
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def seed_or_none(text: str):
    return text if text == "none" else int(text)


def parse_args(argv):
    """Parse argv and put `<checkout>/src` and `<checkout>/bench` on sys.path,
    so the defaults and the table names are the checkout's benchmark's own."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", help="root of the rpe checkout to score")
    parser.add_argument("--seeds", type=seed_or_none, nargs="+", default=list(range(10)),
                        help="stream seeds (default 0-9; none: skip)")
    parser.add_argument("--steps", type=int,
                        help="stream-long stamps per seed, at least 1 (default the benchmark's)")
    parser.add_argument("--tables", nargs="+",
                        help="rpe bench scenarios to report (default the benchmark's; none: skip)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    checkout = Path(args.checkout).resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    from workloads import SIZES

    full = SIZES["full"]
    args.steps = full["long_steps"] if args.steps is None else args.steps
    if args.steps < 1:
        parser.error(f"--steps must be at least 1, got {args.steps}")
    args.tables = list(full["tables"]) if args.tables is None else args.tables
    unknown = set(args.tables) - {*full["tables"], "none"}
    if unknown:
        parser.error(f"--tables: unknown {' '.join(sorted(unknown))}"
                     f" (choose from {' '.join(full['tables'])} or none)")
    for name in ("seeds", "tables"):
        values = getattr(args, name)
        if "none" in values:
            if len(values) > 1:
                parser.error(f"--{name} none takes no other values")
            setattr(args, name, [])
    args.size = {**full, "long_steps": args.steps,
                 "fleet_steps": min(args.steps, full["fleet_steps"]),
                 "cli_steps": min(args.steps, full["cli_steps"])}
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
    import numpy as np

    import rpe
    import rpe.cli
    import workloads
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

    failed_checks = False
    for seed in args.seeds:
        for name in ("stream-long", "stream-fleet"):
            result = stream_pass(rpe, workloads, name, seed, args.size, counts)
            fleet = name == "stream-fleet"
            kept = sorted((f["at"]["feed"], f["at"]["step"], f["type"]) for f in result.failures)
            at = " ".join(f"{k}.{i}:{kind}" if fleet else f"{i}:{kind}" for k, i, kind in kept)
            if fleet:
                measures = f"refits {counts['refits']}"
            else:
                measures = f"max_abs_residual {result.detail['series'][0]['max_abs_residual']!r}"
            print(f"{name} seed {seed}: sha256 {result.outputs} {measures}"
                  f" runtime_warnings {counts['runtime_warnings']}"
                  f" projections {counts['projections']} qr_solves {counts['qr_solves']}"
                  f" failed {result.failed} at [{at}]")
            for error in result.errors:
                print(f"{name} seed {seed}: {error}", file=sys.stderr)
            failed_checks |= bool(result.errors)
        cli_report(seed, args.size, rpe.cli, workloads)

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
    return 1 if failed_checks else 0


def stream_pass(rpe, workloads, name: str, seed: int, size: dict, counts):
    """One pass of the named stream workload, set-up included, as the benchmark
    runs it. Refits and RuntimeWarnings go into counts with the projections."""
    workload = workloads.WORKLOADS[name]
    inputs = workload.inputs(seed, size)
    counts.clear()
    step = rpe.detector.step

    def counted_step(state, value):
        model = state.model
        record = step(state, value)
        counts["refits"] += state.model is not model
        return record

    rpe.detector.step = counted_step
    try:
        with workloads.counted_runtime_warnings() as caught:
            result = workload.run_pass(rpe, inputs, workload.setup(rpe, inputs), None)
    finally:
        rpe.detector.step = step
    counts["runtime_warnings"] = sum(caught.values())
    return result


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


def cli_report(seed: int, size: dict, cli, workloads) -> None:
    """Run CLI_COMMANDS on the seed's cli-workflow files in a scratch directory
    and print one digest line each."""
    workflow = workloads.WORKLOADS["cli-workflow"]
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            workflow.write_files(workflow.inputs(seed, size), Path())
            Path("n_s0.json").write_text(json.dumps({**workloads.CLI_CONFIG, "n_s": 0}))
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


if __name__ == "__main__":
    sys.exit(main())
