#!/usr/bin/env python3
"""Run-to-run spread of the bounded metrics, the way BENCHMARK.json is judged.

Runs each workload once per seed, untraced, one run at a time, and prints for
each end-to-end metric the median and the quartile spread
(Q3 - Q1) / median from statistics.quantiles(values, n=4), next to its bound.

    python3 bench/spread.py --workloads stream-long,cli-workflow --seeds 0-9

--also names unbounded metrics of the run's record to show the same way.

Nothing else should run on the machine meanwhile: a second busy process is
exactly the contention the spread measures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    parser.add_argument("--also", default="", help="comma-separated unbounded metrics")
    args = parser.parse_args(argv)
    extra = [{"name": name, "bound": None} for name in args.also.split(",") if name]
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"] + extra}
        runs = []
        for seed in args.seeds:
            child = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if child.returncode != 0:
                print(f"{workload} seed {seed}: exit {child.returncode}\n{child.stderr[-1000:]}")
                return 1
            lines = child.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
            runs.append(f"{seed}:{'ok' if result['correct'] else 'WRONG'}/failed={result['failed']}")
            for name, entry in result["metrics"].items():
                values[name].append(entry["value"])
            for metric in extra:
                values[metric["name"]].append(record["metrics"][metric["name"]])
        print(f"{workload}  {' '.join(runs)}")
        for metric in spec["end_to_end"] + extra:
            v = values[metric["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            print(f"  {metric['name']:<14} median={median:<11.5g} spread={(q3 - q1) / median:.3f}"
                  f"  bound={metric['bound']}  values={[round(x, 4) for x in v]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
