"""The benchmark's own tests: python3 -m pytest bench/tests -q"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import rpe
import rpe.cli  # noqa: F401
from inputs import digest, make_series
from runner import one_pass
from tracing import Tracer
from workloads import (
    RESTART_WINDOW,
    README_F1,
    SIZES,
    WORKLOADS,
    Feed,
    PassResult,
    best_f1,
    stream,
    table_f1_errors,
)

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    out = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
                    "--trace", str(trace), "--size", "tiny")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] >= 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
        assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
                   for line in lines), metric["name"]


def test_table_f1_check_fails_on_a_wrong_value():
    readme = {t: {m: float(v) for m, v in row.items()} for t, row in README_F1.items()}
    assert table_f1_errors(readme) == []
    wrong = {t: dict(row) for t, row in readme.items()}
    wrong["table3"]["spe"] = 0.7954
    errors = table_f1_errors(wrong)
    assert len(errors) == 1 and "table3 spe" in errors[0]
    missing = {"table1": {"rpe": 1.0, "spe": 0.97, "iid": 0.681}}
    assert any("table1 ar" in e for e in table_f1_errors(missing))


class StubDetector:
    """train/step with the package's signatures; step raises on one value."""

    def __init__(self, bad_value):
        self.bad_value = bad_value
        self.trained_on = []

    def train(self, values, config):
        self.trained_on.append(np.array(values))
        return SimpleNamespace(next_index=len(values))

    def step(self, state, value):
        if value == self.bad_value:
            raise FloatingPointError("stub overflow")
        index, state.next_index = state.next_index, state.next_index + 1
        return SimpleNamespace(index=index, residual=-value, abs_residual=abs(value),
                               cdf_score=0.5, flagged=False, replaced_value=None)


def test_failure_accounting_counts_a_step_that_raises():
    values = np.arange(1.0, 501.0)
    detector = StubDetector(bad_value=values[400])
    config = SimpleNamespace(cdf_threshold=0.95, estimator="stub")
    feed = Feed(seed=0, train=-np.arange(1.0, 101.0), values=values,
                labels=np.zeros(values.size, dtype=bool), config=config)
    result = PassResult()
    stream([feed], [detector.train(feed.train, config)], detector, result)
    assert (result.attempted, result.failed, result.restarts) == (500, 1, 1)
    assert result.scored == 499
    assert dict(result.failure_types) == {"FloatingPointError": 1}
    assert result.failures[0]["at"] == {"feed": 0, "step": 400}
    rebuilt_on = detector.trained_on[-1]
    assert rebuilt_on.size == RESTART_WINDOW and rebuilt_on[-1] == values[400]
    assert result.errors == []  # indices restart consistently after the rebuild


def test_tracer_spans_nest_with_non_negative_self_time():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: sum(range(x)))
    outer = tracer.wrap("outer", lambda: inner(1000) + inner(2000))
    for _ in range(3):
        outer()
    assert tracer.calls("outer") == 3 and tracer.calls("inner") == 6
    assert tracer.parents[("inner", "outer")] == 6
    assert tracer.nesting_errors() == []
    assert min(tracer.self_times["outer"]) >= 0
    assert tracer.self_ms("outer") == pytest.approx(
        tracer.total_ms("outer") - tracer.total_ms("inner"))
    outer_id, _, _, outer_start, outer_end, _ = next(e for e in tracer.log if e[2] == "outer")
    tracer.log.append((10**6, outer_id, "stray", outer_start - 1, outer_end, 0))
    assert tracer.nesting_errors() == [f"stray#{10**6} outside outer#{outer_id}"]


def test_traced_stream_pass_nests_and_restores_the_package(tmp_path):
    workload = WORKLOADS["stream-fleet"]
    inputs = workload.inputs(5, SIZES["tiny"])
    original_step = rpe.detector.step
    tracer = Tracer()
    result, _, _ = one_pass(rpe, workload, inputs, tmp_path, tracer)
    assert rpe.detector.step is original_step
    assert result.errors == []
    assert tracer.nesting_errors() == []
    assert all(min(times) >= 0 for times in tracer.self_times.values())
    assert tracer.parents[("projection.robust_projection", "detector.step")] > 0
    assert tracer.children_of("detector.step", "subspace.fit.") > 0  # refits fire


def test_inputs_depend_only_on_the_seed():
    a, labels = make_series(7, 2000, 300, 0.01)
    b, _ = make_series(7, 2000, 300, 0.01)
    c, _ = make_series(8, 2000, 300, 0.01)
    assert digest(a) == digest(b) != digest(c)
    assert labels.sum() == 17 and not labels[:300].any()


def test_best_f1_agrees_with_the_package():
    rng = np.random.default_rng(0)
    for _ in range(20):
        scores = np.round(rng.random(300), 2)
        labels = rng.random(300) < 0.1
        expected = rpe.evaluation.max_f1(scores, labels).f1
        assert best_f1(scores, labels) == pytest.approx(expected, abs=1e-12)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = run_bench(tmp_path, "--workload", "stream-long", "--seed", "0", "--seconds", "1",
                    "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
