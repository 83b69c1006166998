"""Run one workload in this process and turn its passes into metrics.

An untraced run repeats the workload's pass while one more pass, at the
mean pass time so far, still fits in `seconds` (there is always at least
one pass) and reports the end-to-end metrics. A traced run makes one
untraced pass, then one pass with every layer wrapped by the Tracer, and
reports the per-layer metrics plus the tracing overhead between the two.
`setup_s` comes from fresh processes started by `setup_probes`, because
importing the package only costs anything in a new interpreter.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

from hostenv import environment, host_probe_us
from tracing import StepClock, Tracer, install
from workloads import SIZES, WORKLOADS, counted_runtime_warnings

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROBE_TIMEOUT_S = 120

SPAN_METRICS = {
    "detector.step": ("calls", "total_ms", "p50_us", "self_us", "p50_first_us", "p50_last_us"),
    "detector.train": ("calls", "total_ms", "self_ms"),
    "detector.warm_start": ("calls", "total_ms", "self_ms"),
    "detector.memory_append": ("calls", "total_ms", "p50_us", "p50_first_us", "p50_last_us"),
    "detector.memory_cdf": ("calls", "total_ms", "p50_us", "p50_first_us", "p50_last_us"),
    "projection.robust_projection": ("calls", "total_ms", "p50_us"),
    "projection.simple_projection": ("calls", "total_ms", "p50_us"),
    "subspace.fit.simple": ("calls", "total_ms", "p50_us"),
    "subspace.fit.elementwise": ("calls", "total_ms", "p50_us"),
    "subspace.fit.columnwise": ("calls", "total_ms", "p50_us"),
    "subspace.save_model": ("calls", "total_ms"),
    "subspace.load_model": ("calls", "total_ms"),
    "trajectory.build_trajectory": ("calls", "total_ms", "p50_us"),
    "trajectory.read_csv": ("calls", "total_ms"),
    "coherence.coherence_report": ("calls", "total_ms", "self_ms"),
    "coherence.gamma_estimate": ("calls", "total_ms"),
    "coherence.mu_squared": ("calls", "total_ms"),
    # AR refits on its whole history every 100th step, which a p50 never sees.
    "baselines.ar_step": ("calls", "total_ms", "p50_us", "mean_first_us", "mean_last_us"),
    "baselines.iid_step": ("calls", "total_ms", "p50_us"),
    "synth.generate_clean": ("calls", "total_ms"),
    "synth.inject_anomalies": ("calls", "total_ms"),
    "evaluation.max_f1": ("calls", "total_ms"),
    "evaluation.method_scores": ("calls", "total_ms", "self_ms"),
}
STEP_PERCENTILES = (1, 10, 50, 80, 90, 99)
PARTS = {"p50_us": ("p50", "all"), "p50_first_us": ("p50", "first"),
         "p50_last_us": ("p50", "last"), "mean_first_us": ("mean", "first"),
         "mean_last_us": ("mean", "last")}
CLI_METRICS = {"train": "cli_train_s", "detect": "cli_detect_s",
               "detect_ar": "cli_detect_ar_s", "coherence": "cli_coherence_s"}
# What the --all report prints per workload; cli_* only where they apply.
REPORT_END_TO_END = ("setup_s", "wall_s", "steps_per_s", "step_p1_us", "step_p10_us",
                     "step_p50_us", "step_p80_us", "step_p90_us", "step_p99_us",
                     "peak_rss_mb", "failed_share", "flag_rate", "best_f1",
                     *CLI_METRICS.values())


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(spec: dict) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# -- set-up --------------------------------------------------------------------

def setup_probes(workload: str, seed: int, size: str, count: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to a trained detector, `count` times.

    The child reports the monotonic clock (shared by all processes) once
    the package is imported, then how long the workload's set-up took;
    generating the inputs in between is the benchmark's work and not counted.
    """
    samples = []
    for _ in range(count):
        spawned = perf_counter()
        child = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--size", size],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr.strip()[-500:]}")
        report = json.loads(child.stdout.strip().splitlines()[-1])
        samples.append(report["imported_at"] - spawned + report["setup_s"])
    return samples


def setup_probe(rpe, workload: str, seed: int, size: str, imported_at: float) -> dict:
    w = WORKLOADS[workload]
    inputs = w.inputs(seed, SIZES[size])
    start = perf_counter()
    w.setup(rpe, inputs)
    return {"imported_at": imported_at, "setup_s": perf_counter() - start}


# -- passes ----------------------------------------------------------------

def one_pass(rpe, workload, inputs, workdir: Path, tracer: Tracer | None = None):
    """Set up and run one pass; instruments are removed again whatever happens."""
    if tracer is not None:
        install(tracer, rpe)
    clock = StepClock(rpe.detector)
    try:
        with counted_runtime_warnings() as warns:
            prepared = workload.setup(rpe, inputs)
            result = workload.run_pass(rpe, inputs, prepared, workdir)
    finally:
        clock.restore()
        if tracer is not None:
            tracer.restore()
    return result, clock, warns


def run_workload(rpe, name: str, seed: int, seconds: float, trace: bool, size: str,
                 workdir: Path) -> dict:
    workload, sizes = WORKLOADS[name], SIZES[size]
    probe_before = host_probe_us()
    inputs = workload.inputs(seed, sizes)
    if hasattr(workload, "write_files"):
        workload.write_files(inputs, workdir)
    setup = [] if trace else setup_probes(name, seed, size, sizes["setup_probes"])

    passes, clocks, warns = [], [], []
    start = perf_counter()
    while True:
        result, clock, pass_warns = one_pass(rpe, workload, inputs, workdir)
        passes.append(result)
        clocks.append(clock)
        warns.append(pass_warns)
        elapsed = perf_counter() - start
        if trace or elapsed + elapsed / len(passes) > seconds:
            break
    tracer = None
    if trace:
        tracer = Tracer()
        traced, _, traced_warns = one_pass(rpe, workload, inputs, workdir, tracer)
    probe_after = host_probe_us()

    first = passes[0]
    errors = [e for p in passes for e in p.errors]
    if len({p.outputs for p in passes}) > 1:
        errors.append("passes over the same inputs produced different scores")
    latencies = np.concatenate([np.frombuffer(c.latencies, dtype=np.int64) for c in clocks])
    steps = latencies.size
    values = {
        "setup_s": statistics.median(setup) if setup else None,
        "wall_s": statistics.median(p.wall_s for p in passes),
        "steps_per_s": sum(p.scored for p in passes) / sum(p.stream_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_share": sum(p.failed for p in passes) / sum(p.attempted for p in passes),
        "flag_rate": clocks[0].flags / max(1, len(clocks[0].latencies)),
        "best_f1": first.best_f1,
        "host.probe_us": statistics.median([probe_before, probe_after]),
    }
    for q in STEP_PERCENTILES:
        values[f"step_p{q}_us"] = float(np.percentile(latencies, q)) / 1e3 if steps else None
    for op, metric in CLI_METRICS.items():
        times = [p.cli_s[op] for p in passes if op in p.cli_s]
        values[metric] = statistics.median(times) if times else 0.0
    samples = {"setup_s": len(setup), "wall_s": len(passes),
               "steps_per_s": sum(p.scored for p in passes),
               **{f"step_p{q}_us": steps for q in STEP_PERCENTILES}}
    all_passes = passes
    if tracer is not None:
        all_passes = passes + [traced]
        errors += traced.errors + tracer.nesting_errors()
        values.update(layer_metrics(tracer, traced, traced_warns))
        values["trace.overhead"] = traced.wall_s / first.wall_s
        samples.update({f"{name}.calls": tracer.calls(name) for name in SPAN_METRICS})

    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "size": size,
        "passes": len(passes),
        "correct": not errors,
        "attempted": sum(p.attempted for p in all_passes),
        "failed": sum(p.failed for p in all_passes),
        "metrics": values,
        "samples": samples,
        "errors": errors[:20],
        "failures": first.failures,
        "failure_types": dict(first.failure_types),
        "restarts": first.restarts,
        "runtime_warnings": dict(warns[0].most_common(5)),
        "inputs_sha256": inputs["sha256"],
        "host": {"probe_us_before": probe_before, "probe_us_after": probe_after},
        "environment": environment(ROOT),
        "detail": first.detail,
        "setup_samples_s": setup,
    }


def layer_metrics(tracer: Tracer, traced, warns: Counter) -> dict:
    values = {}
    for name, kinds in SPAN_METRICS.items():
        for kind in kinds:
            if kind == "calls":
                value = tracer.calls(name)
            elif kind == "total_ms":
                value = tracer.total_ms(name)
            elif kind == "self_ms":
                value = tracer.self_ms(name)
            elif kind == "self_us":
                value = tracer.typical_us(name, self_time=True)
            else:
                value = tracer.typical_us(name, *PARTS[kind])
            values[f"{name}.{kind}"] = value
    for key in ("history_len", "memory_len", "replacements_len"):
        values[f"detector.state.{key}"] = tracer.state_sizes.get(key, 0)
    values["detector.refits"] = tracer.children_of("detector.step", "subspace.fit.")
    values["detector.flags"] = tracer.counters["flags"]
    values["detector.replacements"] = tracer.counters["replacements"]
    values["detector.restarts"] = traced.restarts
    values["detector.overflow_warnings"] = sum(warns.values())
    return values


# -- output ----------------------------------------------------------------

def result_line(record: dict, spec: dict) -> dict:
    """The result line: every end-to-end (untraced) or per-layer (traced) metric."""
    chosen = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    metrics = {}
    for metric in chosen:
        value = record["metrics"][metric["name"]]
        if value is None or not np.isfinite(value):
            raise ValueError(f"{record['workload']}: metric {metric['name']} has no value ({value})")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def describe(record: dict, names, unit_of: dict) -> list[str]:
    lines = [f"{record['workload']}  seed={record['seed']}  trace={record['trace']}  "
             f"passes={record['passes']}  correct={record['correct']}  "
             f"attempted={record['attempted']}  failed={record['failed']}"]
    for name in names:
        value = record["metrics"].get(name)
        if value is None:
            continue
        n = record["samples"].get(name)
        lines.append(f"  {name:<40} {value:>14.6g} {unit_of.get(name, ''):<6}"
                     + (f" (n={n})" if n is not None else ""))
    for error in record["errors"]:
        lines.append(f"  CHECK FAILED: {error}")
    return lines
