"""Command line front end.

Subcommands:

* ``synth``: generate a labelled synthetic series CSV from a JSON spec.
* ``train``: fit a subspace model from a training CSV, write model JSON.
* ``detect``: stream a series CSV through a detector, write score rows.
* ``coherence``: print coherence metrics of a basis learned from a CSV.
* ``bench``: run a benchmark scenario, write a JSON report.

CSV rows are ``timestamp,value[,label]``; score rows are
``index,value,residual,cdf_score,flagged``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

from . import detector as detector_mod
from .baselines import make_detector
from .coherence import coherence_report
from .detector import DetectorConfig
from .errors import RpeError
from .evaluation import (
    DEFAULT_METHODS,
    Scenario,
    TABLE_SCENARIOS,
    run_labeled_series,
    run_scenario,
    write_report,
)
from .subspace import ESTIMATORS, load_model, save_model
from .synth import AnomalySpec, SynthSpec, generate_clean, inject_anomalies
from .trajectory import read_csv, write_csv

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(DetectorConfig)}
_SCENARIO_FIELDS = {f.name for f in dataclasses.fields(Scenario)} - {"name"}


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_config(path: str | None, **overrides) -> DetectorConfig:
    payload = dict(_load_json(path)) if path else {}
    unknown = set(payload) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    payload.update(overrides)
    return DetectorConfig(**payload)


def _cmd_synth(args) -> int:
    payload = _load_json(args.spec)
    anomalies = payload.pop("anomalies", None)
    if "weights" in payload:
        payload["weights"] = tuple(payload["weights"])
    if "period_ranges" in payload:
        payload["period_ranges"] = tuple(tuple(r) for r in payload["period_ranges"])
    series = generate_clean(SynthSpec(**payload))
    if anomalies is not None:
        series = inject_anomalies(series, AnomalySpec(**anomalies))
    write_csv(args.out, series)
    print(f"wrote {len(series)} samples to {args.out}")
    return 0


def _cmd_train(args) -> int:
    series = read_csv(args.input, impute_median=args.impute_median)
    config = _load_config(args.config)
    state = detector_mod.train(series.values, config)
    save_model(state.model, args.output)
    print(f"trained rank-{state.model.r} model on {len(series)} samples -> {args.output}")
    return 0


def _write_scores(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "value", "residual", "cdf_score", "flagged"])
        for index, value, residual, cdf_score, flagged in rows:
            writer.writerow([index, repr(float(value)), repr(float(residual)),
                             repr(float(cdf_score)), int(flagged)])


def _cmd_detect(args) -> int:
    series = read_csv(args.input, impute_median=args.impute_median)
    offset = 0
    if args.method in ("rpe", "spe"):
        if not args.model:
            raise ValueError(f"--model is required for method {args.method}")
        model = load_model(args.model)
        det = make_detector(args.method, _load_config(args.config, M1=model.M1))
        if args.train:
            det.warm_start(model, read_csv(args.train, impute_median=args.impute_median).values)
        else:
            # Cold start: the first window of the input seeds the history and
            # the residual memory fills as scoring proceeds.
            offset = model.M1
            if len(series) <= offset:
                raise ValueError(f"input must exceed M1={offset} samples without --train")
            det.warm_start(model, series.values[:offset])
    else:
        if not args.train:
            raise ValueError(f"--train is required for method {args.method}")
        det = make_detector(args.method, _load_config(args.config))
        det.fit(read_csv(args.train, impute_median=args.impute_median).values)
    rows = []
    for i, value in enumerate(series.values[offset:], start=offset):
        rec = det.step(float(value))
        rows.append((i, value, rec.residual, rec.cdf_score, rec.flagged))
    _write_scores(args.output, rows)
    print(f"scored {len(rows)} samples with {args.method} -> {args.output}")
    return 0


def _cmd_coherence(args) -> int:
    series = read_csv(args.input, impute_median=args.impute_median)
    config = _load_config(args.config)
    model = ESTIMATORS[config.estimator](series.values, config.M1, rank_cap=config.rank_cap)
    report = coherence_report(model.U, n_starts=args.n_starts, seed=args.seed)
    print(json.dumps(dataclasses.asdict(report), indent=2))
    return 0


def _make_curve_sink(directory):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    def sink(method, run_index, curve):
        path = directory / f"{method}_run{run_index:02d}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["threshold", "precision", "recall", "f1"])
            for point in curve:
                writer.writerow([repr(point.threshold), repr(point.precision),
                                 repr(point.recall), repr(point.f1)])

    return sink


def _scenario_from_payload(payload: dict) -> Scenario:
    fields = {k: v for k, v in payload.items() if k in _SCENARIO_FIELDS}
    unknown = set(payload) - _SCENARIO_FIELDS - {"name", "kind"}
    if unknown:
        raise ValueError(f"unknown scenario keys: {sorted(unknown)}")
    if "methods" in fields:
        fields["methods"] = tuple(fields["methods"])
    return Scenario(name=payload.get("name", "custom"), **fields)


def _cmd_bench(args) -> int:
    sink = _make_curve_sink(args.emit_curves) if args.emit_curves else None
    if args.scenario in TABLE_SCENARIOS:
        report = run_scenario(TABLE_SCENARIOS[args.scenario], curve_sink=sink)
    else:
        payload = _load_json(args.scenario)
        if payload.get("kind") == "csv":
            series = read_csv(payload["path"], impute_median=args.impute_median)
            report = run_labeled_series(
                series,
                train_len=payload.get("train_len", 100),
                methods=tuple(payload.get("methods", DEFAULT_METHODS)),
                detector_config=payload.get("detector", {}),
                name=payload.get("name", Path(payload["path"]).name),
                curve_sink=sink,
            )
        else:
            report = run_scenario(_scenario_from_payload(payload), curve_sink=sink)
    write_report(report, args.out)
    summary = ", ".join(
        f"{method} F1={s.mean_f1:.3f}" for method, s in report.methods.items()
    )
    print(f"{report.scenario}: {summary} -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpe",
        description="Streaming anomaly detection via robust subspace projection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Shared by every command that reads a series CSV.
    csv_input = argparse.ArgumentParser(add_help=False)
    csv_input.add_argument("--impute-median", action="store_true",
                           help="replace missing/non-finite CSV values with the median")

    p_synth = sub.add_parser("synth", help="generate a labelled synthetic series CSV")
    p_synth.add_argument("--spec", required=True, help="JSON generator spec")
    p_synth.add_argument("--out", required=True, help="output CSV path")
    p_synth.set_defaults(func=_cmd_synth)

    p_train = sub.add_parser("train", parents=[csv_input],
                             help="fit a subspace model from a training CSV")
    p_train.add_argument("--input", required=True, help="training CSV")
    p_train.add_argument("--config", help="detector config JSON")
    p_train.add_argument("--output", required=True, help="model JSON path")
    p_train.set_defaults(func=_cmd_train)

    p_detect = sub.add_parser("detect", parents=[csv_input], help="score a series CSV")
    p_detect.add_argument("--model", help="model JSON (required for rpe/spe)")
    p_detect.add_argument("--input", required=True, help="series CSV to score")
    p_detect.add_argument("--output", required=True, help="scores CSV path")
    p_detect.add_argument("--method", choices=("rpe", "spe", "iid", "ar"), default="rpe")
    p_detect.add_argument("--config", help="detector config JSON")
    p_detect.add_argument("--train", help="training CSV to seed history/memory")
    p_detect.set_defaults(func=_cmd_detect)

    p_coh = sub.add_parser("coherence", parents=[csv_input],
                           help="coherence metrics of a learned basis")
    p_coh.add_argument("--input", required=True, help="series CSV")
    p_coh.add_argument("--config", help="detector config JSON")
    p_coh.add_argument("--n-starts", type=int, default=64)
    p_coh.add_argument("--seed", type=int, default=0)
    p_coh.set_defaults(func=_cmd_coherence)

    p_bench = sub.add_parser("bench", parents=[csv_input], help="run a benchmark scenario")
    p_bench.add_argument("--scenario", required=True,
                         help="table1|table2|table3|table4 or a scenario JSON path")
    p_bench.add_argument("--out", required=True, help="report JSON path")
    p_bench.add_argument("--emit-curves", help="directory for per-run PR curve CSVs")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RpeError, ValueError, TypeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
