#!/usr/bin/env python3
"""Benchmark for rpe, run from the root of a checkout.

One workload, in this process:
    python3 bench/run.py --workload stream-long --seed 0 --seconds 20 --trace 0

Every workload, each in a fresh process, untraced and then traced, with a
report of all metrics (exit status 1 if any output check fails):
    python3 bench/run.py --all [--seed 0] [--out bench/results/run.json]

A single run prints a readable summary, then a line "record {...}" with
everything measured, the environment and the inputs' SHA-256, and last one
JSON object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). The package is imported from the checkout's src/ directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("stream-long", "stream-fleet", "bench-tables", "cli-workflow")
RUN_TIMEOUT_S = 900


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="how long a run measures (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the benchmark's own tests")
    parser.add_argument("--all", action="store_true", help="run every workload, untraced then traced")
    parser.add_argument("--out", help="with --all: write every record to this JSON file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("--workload is required unless --all is given")
    return args


def require_package() -> None:
    if not (SRC / "rpe" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {SRC / 'rpe'}; run from a full checkout")


def import_package(workload: str | None):
    """Import rpe from this checkout's src/, never from anywhere else.

    `import rpe` loads every module but the CLI; rpe.cli is added unless a
    stream workload's set-up is being timed.
    """
    require_package()
    sys.path.insert(0, str(SRC))
    import rpe

    if workload in ("bench-tables", "cli-workflow", None):
        import rpe.cli  # noqa: F401  (CLI users pay this import on every call)
    if Path(rpe.__file__).resolve().parent != (SRC / "rpe").resolve():
        raise SystemExit(f"error: imported rpe from {rpe.__file__}, not from {SRC}")
    return rpe


def run_all(args) -> int:
    """Each workload in a fresh process: all untraced, then all traced."""
    sys.path.insert(0, str(BENCH))
    from runner import REPORT_END_TO_END, describe, load_spec, units

    spec = load_spec()
    unit_of = units(spec)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    records, ok = [], True
    for trace in (0, 1):
        for name in WORKLOAD_NAMES:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(seconds), "--trace", str(trace),
                   "--size", args.size]
            child = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                   timeout=RUN_TIMEOUT_S)
            lines = child.stdout.strip().splitlines()
            record_lines = [line for line in lines if line.startswith("record ")]
            if child.returncode != 0 or not record_lines:
                print(f"{name} trace={trace}: exit {child.returncode}\n{child.stderr[-2000:]}")
                ok = False
                continue
            record = json.loads(record_lines[-1][len("record "):])
            records.append(record)
            ok &= record["correct"]

    print("== end to end (untraced) ==")
    for record in (r for r in records if not r["trace"]):
        names = [n for n in REPORT_END_TO_END
                 if not n.startswith("cli_") or record["workload"] == "cli-workflow"]
        print("\n".join(describe(record, names, unit_of)))
    print("== per layer (traced) ==")
    layer_names = [m["name"] for m in spec["per_layer"]]
    for record in (r for r in records if r["trace"]):
        print("\n".join(describe(record, layer_names, unit_of)))
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=1) + "\n")
    print("all checks passed" if ok else "SOME RUNS FAILED OR CHECKS FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread: every workload is one caller in one thread. Set before
    # numpy loads; an explicit setting in the environment wins.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if args.all:
        require_package()
        return run_all(args)

    rpe = import_package(args.workload if args.setup_probe else None)
    imported_at = perf_counter()
    sys.path.insert(0, str(BENCH))
    import runner

    if args.setup_probe:
        print(json.dumps(runner.setup_probe(rpe, args.workload, args.seed, args.size, imported_at)))
        return 0

    spec = runner.load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    work_root = ROOT / ".bench_work"  # CSV and JSON files the CLI workloads exchange
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        record = runner.run_workload(rpe, args.workload, args.seed, seconds,
                                     bool(args.trace), args.size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(work_root.iterdir()):
            work_root.rmdir()
    line = runner.result_line(record, spec)
    names = [m["name"] for m in (spec["per_layer"] if args.trace else spec["end_to_end"])]
    print("\n".join(runner.describe(record, names, runner.units(spec))))
    print("record " + json.dumps(record, default=str))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
