"""Spans and counters recorded around the calls into each rpe module.

The benchmark never edits the package. For the length of one pass it
replaces the attributes that callers look up (module globals such as
`rpe.detector.robust_projection`, the `ESTIMATORS` table, `ResidualMemory`
methods) with wrappers, and puts the originals back afterwards.

A span has a name, a parent, and a start and end in integer nanoseconds.
Self time is the duration minus the time of the span's direct children;
integer clocks keep it exact, so nesting implies self time >= 0.
"""

from __future__ import annotations

import statistics
from array import array
from collections import Counter
from time import perf_counter_ns

# First spans kept verbatim, to check nesting at the end of a traced pass.
SPAN_LOG_CAP = 50_000


def state_sizes(state) -> dict[str, int]:
    """Entries held by a detector state; a container the state lacks counts 0."""
    return {
        "history_len": len(getattr(state, "history", ())),
        "memory_len": len(getattr(state, "memory", ())),
        "replacements_len": len(getattr(state, "replacements", ())),
    }


class StepClock:
    """The untraced pass's only instrument: latency and flags of each step.

    Wraps `rpe.detector.step`, which every workload's rpe steps go through,
    and keeps the durations of the calls that returned a record.
    """

    def __init__(self, detector_module):
        self.latencies = array("q")
        self.flags = 0
        self._module = detector_module
        self._original = detector_module.step
        original, latencies = self._original, self.latencies

        def step(*args, **kwargs):
            t0 = perf_counter_ns()
            record = original(*args, **kwargs)
            latencies.append(perf_counter_ns() - t0)
            if record.flagged:
                self.flags += 1
            return record

        detector_module.step = step

    def restore(self) -> None:
        self._module.step = self._original


class Tracer:
    def __init__(self):
        self.durations: dict[str, array] = {}
        self.self_times: dict[str, array] = {}
        self.parents: Counter = Counter()  # (child name, parent name) -> calls
        self.counters: Counter = Counter()
        self.log: list[tuple] = []  # (id, parent id, name, start, end, self)
        self.state_sizes: dict[str, int] = {}
        self._states: list = []
        self._stack: list[list] = []  # [id, name, child ns]
        self._next_id = 0
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _record(self, frame, start: int, end: int) -> None:
        span_id, name, child_ns = frame
        duration = end - start
        self_ns = duration - child_ns
        if name not in self.durations:
            self.durations[name] = array("q")
            self.self_times[name] = array("q")
        self.durations[name].append(duration)
        self.self_times[name].append(self_ns)
        parent_id, parent_name = None, None
        if self._stack:
            parent = self._stack[-1]
            parent[2] += duration
            parent_id, parent_name = parent[0], parent[1]
        self.parents[(name, parent_name)] += 1
        if span_id < SPAN_LOG_CAP:
            self.log.append((span_id, parent_id, name, start, end, self_ns))

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            frame = [self._next_id, name, 0]
            self._next_id += 1
            self._stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self._record(frame, start, end)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr by a traced wrapper; absent attributes are skipped."""
        original = getattr(owner, attr, None)
        if original is None:
            return
        setattr(owner, attr, self.wrap(name, original, on_result))
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_item(self, mapping: dict, key, name: str) -> None:
        original = mapping[key]
        mapping[key] = self.wrap(name, original)
        self._undo.append(lambda: mapping.__setitem__(key, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()
        self.fold_states()

    # -- detector state ----------------------------------------------------

    def observe_state(self, state) -> None:
        """Keep a state returned by train/warm_start; it is measured at restore()."""
        self._states.append(state)

    def fold_states(self) -> None:
        """Largest size of each container over the observed states, at the end of the pass."""
        for state in self._states:
            for key, value in state_sizes(state).items():
                self.state_sizes[key] = max(self.state_sizes.get(key, 0), value)
        self._states.clear()

    # -- summaries ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total_ms(self, name: str) -> float:
        return sum(self.durations.get(name, ())) / 1e6

    def self_ms(self, name: str) -> float:
        return sum(self.self_times.get(name, ())) / 1e6

    def typical_us(self, name: str, stat: str = "p50", part: str = "all",
                   self_time: bool = False) -> float:
        """Median ('p50') or mean call time in microseconds.

        part 'first' or 'last' takes only the first or last tenth of the calls.
        """
        values = (self.self_times if self_time else self.durations).get(name, ())
        if part != "all":
            tenth = max(1, len(values) // 10)
            values = values[:tenth] if part == "first" else values[-tenth:]
        if not len(values):
            return 0.0
        return (statistics.median(values) if stat == "p50" else statistics.fmean(values)) / 1e3

    def children_of(self, parent: str, prefix: str) -> int:
        return sum(n for (child, par), n in self.parents.items()
                   if par == parent and child.startswith(prefix))

    def nesting_errors(self) -> list[str]:
        """Logged spans that leave their parent's interval or have negative self time."""
        by_id = {entry[0]: entry for entry in self.log}
        errors = []
        for span_id, parent_id, name, start, end, self_ns in self.log:
            if self_ns < 0 or end < start:
                errors.append(f"{name}#{span_id}: self {self_ns} ns")
            parent = by_id.get(parent_id)
            if parent is not None and not parent[3] <= start <= end <= parent[4]:
                errors.append(f"{name}#{span_id} outside {parent[2]}#{parent_id}")
        return errors


def install(tracer: Tracer, rpe) -> None:
    """Wrap every module's public entry points under `layer.function` names.

    `rpe` is a namespace holding the imported package modules. Each wrapper
    sits on the name the caller looks up: detector.py imported the
    projection functions into its own globals, cli.py imported the I/O and
    coherence functions into its own, and so on.
    """
    detector, cli, coherence = rpe.detector, rpe.cli, rpe.coherence
    evaluation, baselines, subspace = rpe.evaluation, rpe.baselines, rpe.subspace

    def on_step(record) -> None:
        tracer.counters["flags"] += bool(record.flagged)
        tracer.counters["replacements"] += record.replaced_value is not None

    tracer.patch(detector, "train", "detector.train", tracer.observe_state)
    tracer.patch(detector, "warm_start", "detector.warm_start", tracer.observe_state)
    tracer.patch(detector, "step", "detector.step", on_step)
    tracer.patch(detector.ResidualMemory, "append", "detector.memory_append")
    tracer.patch(detector.ResidualMemory, "cdf", "detector.memory_cdf")
    tracer.patch(detector, "robust_projection", "projection.robust_projection")
    tracer.patch(detector, "simple_projection", "projection.simple_projection")
    for key in list(subspace.ESTIMATORS):
        tracer.patch_item(subspace.ESTIMATORS, key, f"subspace.fit.{key}")
    tracer.patch(cli, "save_model", "subspace.save_model")
    tracer.patch(cli, "load_model", "subspace.load_model")
    tracer.patch(cli, "read_csv", "trajectory.read_csv")
    tracer.patch(detector, "build_trajectory", "trajectory.build_trajectory")
    tracer.patch(subspace, "build_trajectory", "trajectory.build_trajectory")
    tracer.patch(cli, "coherence_report", "coherence.coherence_report")
    tracer.patch(coherence, "mu_squared", "coherence.mu_squared")
    tracer.patch(coherence, "gamma_estimate", "coherence.gamma_estimate")
    tracer.patch(baselines, "ar_step", "baselines.ar_step")
    tracer.patch(baselines, "iid_step", "baselines.iid_step")
    tracer.patch(evaluation, "generate_clean", "synth.generate_clean")
    tracer.patch(evaluation, "inject_anomalies", "synth.inject_anomalies")
    tracer.patch(evaluation, "max_f1", "evaluation.max_f1")
    tracer.patch(evaluation, "method_scores", "evaluation.method_scores")
