"""Command-line interface tests, run in-process through cli.main."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest

from rpe import cli
from rpe.coherence import mu_squared
from rpe.subspace import load_model
from rpe.synth import SynthSpec, generate_clean
from rpe.trajectory import TimeSeries, read_csv, write_csv

DATA = Path(__file__).resolve().parent.parent / "data"


def write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def series_csv(tmp_path):
    """A 300-sample synthetic series CSV for training and scoring."""
    path = tmp_path / "series.csv"
    write_csv(path, generate_clean(SynthSpec(length=300, seed=42)))
    return path


@pytest.fixture()
def model_json(tmp_path, series_csv):
    out = tmp_path / "model.json"
    assert cli.main(["train", "--input", str(series_csv), "--output", str(out)]) == 0
    return out


def read_scores(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestSynth:
    def test_writes_labelled_csv(self, tmp_path, capsys):
        spec = write_json(
            tmp_path / "spec.json",
            {
                "length": 250,
                "seed": 7,
                "anomalies": {"fraction": 0.04, "seed": 7, "protect_prefix": 100},
            },
        )
        out = tmp_path / "series.csv"
        assert cli.main(["synth", "--spec", spec, "--out", str(out)]) == 0
        assert "wrote 250 samples" in capsys.readouterr().out
        series = read_csv(out)
        assert len(series) == 250
        assert series.labels.sum() == round(0.04 * 250)
        assert not series.labels[:100].any()

    def test_clean_when_no_anomaly_block(self, tmp_path):
        spec = write_json(tmp_path / "spec.json", {"length": 120, "seed": 1})
        out = tmp_path / "clean.csv"
        assert cli.main(["synth", "--spec", spec, "--out", str(out)]) == 0
        assert not read_csv(out).labels.any()

    def test_bad_spec_key_fails(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {"length": 120, "wavelength": 3})
        assert cli.main(["synth", "--spec", spec, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "wavelength" in err

    def test_bad_anomaly_key_fails(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json",
                          {"length": 120, "anomalies": {"fraction": 0.04, "amplitude": 2}})
        assert cli.main(["synth", "--spec", spec, "--out", str(tmp_path / "x.csv")]) == 2
        assert "amplitude" in capsys.readouterr().err

    def test_anomaly_block_that_is_no_object_fails(self, tmp_path, capsys):
        spec = write_json(tmp_path / "spec.json", {"length": 120, "anomalies": [0.04]})
        assert cli.main(["synth", "--spec", spec, "--out", str(tmp_path / "x.csv")]) == 2
        assert "error: AnomalySpec needs a JSON object, got [0.04]" in capsys.readouterr().err


class TestTrain:
    def test_writes_model(self, tmp_path, series_csv, capsys):
        out = tmp_path / "model.json"
        assert cli.main(["train", "--input", str(series_csv), "--output", str(out)]) == 0
        assert "trained rank-" in capsys.readouterr().out
        model = load_model(out)
        assert model.M1 == 30
        assert json.loads(out.read_text())["version"] == 1

    def test_config_file_is_honoured(self, tmp_path, series_csv):
        cfg = write_json(tmp_path / "cfg.json", {"M1": 20, "n_s": 3})
        out = tmp_path / "model.json"
        assert cli.main(["train", "--input", str(series_csv),
                         "--config", cfg, "--output", str(out)]) == 0
        assert load_model(out).M1 == 20

    def test_unknown_config_key_rejected(self, tmp_path, series_csv, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"M1": 20, "bogus": 1})
        code = cli.main(["train", "--input", str(series_csv),
                         "--config", cfg, "--output", str(tmp_path / "m.json")])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_config_that_is_no_object_rejected(self, tmp_path, series_csv, capsys):
        cfg = write_json(tmp_path / "cfg.json", [20, 3])
        code = cli.main(["train", "--input", str(series_csv),
                         "--config", cfg, "--output", str(tmp_path / "m.json")])
        assert code == 2
        assert f"error: {cfg} holds no JSON object" in capsys.readouterr().err

    def test_too_short_series_rejected(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        write_csv(path, generate_clean(SynthSpec(length=59, seed=3)))
        code = cli.main(["train", "--input", str(path), "--output", str(tmp_path / "m.json")])
        assert code == 2
        assert ("error: need at least 60 samples for window_size 30, got 59"
                in capsys.readouterr().err)
        assert not (tmp_path / "m.json").exists()

    def test_missing_value_rejected_with_index(self, tmp_path, capsys):
        path = tmp_path / "holes.csv"
        rows = ["timestamp,value,label"]
        values = generate_clean(SynthSpec(length=100, seed=3)).values
        for i, v in enumerate(values):
            rows.append(f"{i},{'' if i == 5 else repr(float(v))},0")
        path.write_text("\n".join(rows) + "\n")
        code = cli.main(["train", "--input", str(path),
                         "--output", str(tmp_path / "m.json")])
        assert code == 2
        assert "5" in capsys.readouterr().err  # names the offending index

    def test_impute_median_recovers(self, tmp_path):
        path = tmp_path / "holes.csv"
        rows = ["timestamp,value,label"]
        values = generate_clean(SynthSpec(length=100, seed=3)).values
        for i, v in enumerate(values):
            rows.append(f"{i},{'' if i == 5 else repr(float(v))},0")
        path.write_text("\n".join(rows) + "\n")
        out = tmp_path / "m.json"
        assert cli.main(["train", "--input", str(path),
                         "--impute-median", "--output", str(out)]) == 0
        assert out.exists()


class TestDetect:
    def test_warm_start_scores_every_input_row(self, tmp_path, series_csv, model_json):
        follow = tmp_path / "follow.csv"
        write_csv(follow, generate_clean(SynthSpec(length=150, seed=43)))
        out = tmp_path / "scores.csv"
        code = cli.main(["detect", "--model", str(model_json),
                         "--input", str(follow), "--train", str(series_csv),
                         "--output", str(out)])
        assert code == 0
        rows = read_scores(out)
        assert len(rows) == 150
        assert [int(r["index"]) for r in rows[:3]] == [0, 1, 2]
        assert set(rows[0]) == {"index", "value", "residual", "cdf_score", "flagged"}

    def test_cold_start_skips_the_first_window(self, tmp_path, series_csv, model_json):
        out = tmp_path / "scores.csv"
        code = cli.main(["detect", "--model", str(model_json),
                         "--input", str(series_csv), "--output", str(out)])
        assert code == 0
        rows = read_scores(out)
        assert len(rows) == 270  # 300 - M1
        assert int(rows[0]["index"]) == 30

    def test_flags_an_obvious_spike(self, tmp_path, series_csv, model_json):
        base = generate_clean(SynthSpec(length=150, seed=43))
        spiked = base.values.copy()
        spiked[100] += 30.0
        follow = tmp_path / "spiked.csv"
        write_csv(follow, TimeSeries(values=spiked))
        out = tmp_path / "scores.csv"
        assert cli.main(["detect", "--model", str(model_json),
                         "--input", str(follow), "--train", str(series_csv),
                         "--output", str(out)]) == 0
        rows = read_scores(out)
        assert rows[100]["flagged"] == "1"
        assert abs(float(rows[100]["residual"])) > 20.0

    def test_spe_method_uses_same_model(self, tmp_path, series_csv, model_json):
        out = tmp_path / "scores.csv"
        code = cli.main(["detect", "--method", "spe", "--model", str(model_json),
                         "--input", str(series_csv), "--output", str(out)])
        assert code == 0
        assert len(read_scores(out)) == 270

    @pytest.mark.parametrize("start", ["warm", "cold"])
    def test_spe_method_is_the_zero_budget_config(self, tmp_path, series_csv, model_json,
                                                  start):
        spiked = generate_clean(SynthSpec(length=150, seed=43)).values.copy()
        spiked[100] += 30.0
        follow = tmp_path / "spiked.csv"
        write_csv(follow, TimeSeries(values=spiked))
        zero_budget = write_json(tmp_path / "n_s0.json", {"n_s": 0})
        seed = ["--train", str(series_csv)] if start == "warm" else []
        outputs = {}
        for name, extra in (("spe", ["--method", "spe"]), ("n_s0", ["--config", zero_budget]),
                            ("rpe", [])):
            outputs[name] = tmp_path / f"{name}.csv"
            assert cli.main(["detect", "--model", str(model_json), *seed,
                             "--input", str(follow), "--output", str(outputs[name])] + extra) == 0
        assert outputs["spe"].read_bytes() == outputs["n_s0"].read_bytes()
        assert outputs["spe"].read_bytes() != outputs["rpe"].read_bytes()

    def test_config_without_M1_takes_the_model_window(self, tmp_path, series_csv):
        cfg = write_json(tmp_path / "m20.json", {"M1": 20})
        model = tmp_path / "m20_model.json"
        assert cli.main(["train", "--input", str(series_csv), "--config", cfg,
                         "--output", str(model)]) == 0
        n_s = write_json(tmp_path / "n_s.json", {"n_s": 3})
        out = tmp_path / "s.csv"
        assert cli.main(["detect", "--model", str(model), "--config", n_s,
                         "--input", str(series_csv), "--output", str(out)]) == 0
        assert len(read_scores(out)) == 280

    @pytest.mark.parametrize("M1", [20, 40])
    @pytest.mark.parametrize("start", ["warm", "cold"])
    def test_config_M1_other_than_the_model_is_rejected(self, tmp_path, series_csv, model_json,
                                                        capsys, start, M1):
        cfg = write_json(tmp_path / "cfg.json", {"M1": M1})
        seed = ["--train", str(series_csv)] if start == "warm" else []
        code = cli.main(["detect", "--model", str(model_json), *seed, "--config", cfg,
                         "--input", str(series_csv), "--output", str(tmp_path / "s.csv")])
        assert code == 2
        assert f"model window 30 does not match config M1 {M1}" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["iid", "ar"])
    def test_reference_methods_require_training_csv(self, tmp_path, series_csv,
                                                    method, capsys):
        code = cli.main(["detect", "--method", method,
                         "--input", str(series_csv),
                         "--output", str(tmp_path / "s.csv")])
        assert code == 2
        assert "--train is required" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["iid", "ar"])
    def test_reference_methods_with_training_csv(self, tmp_path, series_csv, method):
        follow = tmp_path / "follow.csv"
        write_csv(follow, generate_clean(SynthSpec(length=80, seed=43)))
        out = tmp_path / "s.csv"
        code = cli.main(["detect", "--method", method, "--train", str(series_csv),
                         "--input", str(follow), "--output", str(out)])
        assert code == 0
        assert len(read_scores(out)) == 80

    def test_non_finite_model_is_rejected(self, tmp_path, series_csv, model_json, capsys):
        doc = json.loads(model_json.read_text())
        doc["U"][3] = float("nan")
        model_json.write_text(json.dumps(doc))
        code = cli.main(["detect", "--model", str(model_json), "--train", str(series_csv),
                         "--input", str(series_csv), "--output", str(tmp_path / "s.csv")])
        assert code == 2
        assert "orthonormality" in capsys.readouterr().err

    def test_cold_start_needs_more_than_one_window(self, tmp_path, model_json, capsys):
        path = tmp_path / "short.csv"
        write_csv(path, generate_clean(SynthSpec(length=30, seed=43)))
        code = cli.main(["detect", "--model", str(model_json),
                         "--input", str(path), "--output", str(tmp_path / "s.csv")])
        assert code == 2
        assert "error: input must exceed M1=30 samples without --train" in capsys.readouterr().err

    def test_model_that_is_no_object_is_rejected(self, tmp_path, series_csv, capsys):
        model = tmp_path / "model.json"
        model.write_text("[1, 2]")
        code = cli.main(["detect", "--model", str(model), "--input", str(series_csv),
                         "--output", str(tmp_path / "s.csv")])
        assert code == 2
        assert "error: model payload must be a JSON object" in capsys.readouterr().err

    def test_projection_methods_require_model(self, tmp_path, series_csv, capsys):
        code = cli.main(["detect", "--input", str(series_csv),
                         "--output", str(tmp_path / "s.csv")])
        assert code == 2
        assert "--model is required" in capsys.readouterr().err


class TestCoherence:
    def test_reports_four_metrics(self, series_csv, capsys):
        assert cli.main(["coherence", "--input", str(series_csv),
                         "--n-starts", "8", "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "mu_squared", "gamma_estimate", "kappa_estimate", "gamma_is_exact",
        }
        assert 0.0 < payload["mu_squared"] <= 1.0
        assert 0.0 < payload["gamma_estimate"] <= 1.0
        assert payload["kappa_estimate"] == pytest.approx(
            np.sqrt(payload["mu_squared"]) * payload["gamma_estimate"]
        )

    def test_reports_the_basis_train_saves(self, tmp_path, capsys):
        # For a CSV longer than t_max, train fits the last t_max values;
        # coherence must describe that basis, not one of the whole file.
        path = tmp_path / "long.csv"
        write_csv(path, generate_clean(SynthSpec(length=1000, seed=5)))
        cfg = write_json(tmp_path / "cfg.json", {"estimator": "columnwise"})
        model = tmp_path / "model.json"
        assert cli.main(["train", "--input", str(path), "--config", cfg,
                         "--output", str(model)]) == 0
        capsys.readouterr()
        assert cli.main(["coherence", "--input", str(path), "--config", cfg,
                         "--n-starts", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mu_squared"] == mu_squared(load_model(model).U)

    def test_no_start_is_a_usage_error(self, series_csv, capsys):
        assert cli.main(["coherence", "--input", str(series_csv), "--n-starts", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n_starts" in captured.err


class TestBench:
    def test_custom_synthetic_scenario(self, tmp_path, capsys):
        scenario = write_json(
            tmp_path / "scenario.json",
            {"name": "fast", "n_runs": 2, "methods": ["iid", "ar"],
             "total_len": 220, "train_len": 100},
        )
        out = tmp_path / "report.json"
        assert cli.main(["bench", "--scenario", scenario, "--out", str(out)]) == 0
        assert "fast:" in capsys.readouterr().out
        report = json.loads(out.read_text())
        assert report["scenario"] == "fast"
        assert report["n_runs"] == 2
        assert set(report["methods"]) == {"iid", "ar"}

    def test_csv_scenario_with_curves(self, tmp_path):
        scenario = write_json(
            tmp_path / "scenario.json",
            {"kind": "csv", "path": str(DATA / "sample_labeled.csv"),
             "train_len": 100, "methods": ["rpe"]},
        )
        out = tmp_path / "report.json"
        curves = tmp_path / "curves"
        code = cli.main(["bench", "--scenario", scenario, "--out", str(out),
                         "--emit-curves", str(curves)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["methods"]["rpe"]["mean_f1"] == 1.0
        curve_file = curves / "rpe_run00.csv"
        assert curve_file.exists()
        with open(curve_file) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["threshold", "precision", "recall", "f1"]

    def test_csv_scenario_honours_detector_config(self, tmp_path):
        reports = {}
        for name, extra in (("default", {}), ("short", {"detector_config": {"M1": 10, "n_s": 0}})):
            scenario = write_json(
                tmp_path / f"{name}.json",
                {"kind": "csv", "path": str(DATA / "sample_labeled.csv"), "methods": ["rpe"],
                 **extra},
            )
            out = tmp_path / f"{name}_report.json"
            assert cli.main(["bench", "--scenario", scenario, "--out", str(out)]) == 0
            reports[name] = json.loads(out.read_text())["methods"]["rpe"]
        assert reports["default"]["mean_f1"] == 1.0
        assert reports["short"] != reports["default"]

    @pytest.mark.parametrize("payload, key", [
        ({"kind": "csv", "path": str(DATA / "sample_labeled.csv"), "detector": {"M1": 10}},
         "detector"),
        ({"kind": "csv", "path": str(DATA / "sample_labeled.csv"), "train_lne": 100},
         "train_lne"),
        ({"kind": "csv", "path": str(DATA / "sample_labeled.csv"),
          "detector_config": {"M1": 10, "bogus": 1}}, "bogus"),
        ({"name": "x", "detector_config": {"M1": 10, "bogus": 1}}, "bogus"),
    ], ids=["csv-detector", "csv-typo", "csv-nested", "synthetic-nested"])
    def test_unknown_nested_or_csv_key_rejected(self, tmp_path, capsys, payload, key):
        scenario = write_json(tmp_path / "scenario.json", payload)
        code = cli.main(["bench", "--scenario", scenario, "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_unknown_scenario_key_rejected(self, tmp_path, capsys):
        scenario = write_json(tmp_path / "scenario.json",
                              {"name": "x", "n_rnus": 2})
        code = cli.main(["bench", "--scenario", scenario,
                         "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "n_rnus" in capsys.readouterr().err

    @pytest.mark.parametrize("payload, problem", [
        ({"name": "x", "n_runs": 0, "methods": ["iid"]}, "n_runs must be at least 1, got 0"),
        ({"name": "x", "n_runs": 1, "methods": []}, "methods must name at least one"),
        ({"kind": "csv", "path": str(DATA / "sample_labeled.csv"), "methods": []},
         "methods must name at least one"),
        ({"name": "x", "n_runs": 1, "methods": ["iid", "median"]}, "unknown method 'median'"),
        ({"kind": "Csv", "path": str(DATA / "sample_labeled.csv")},
         'scenario kind must be "csv" or absent, got \'Csv\''),
        ({"name": "x", "n_runs": 1, "methods": ["rpe", "rpe"]}, "method 'rpe' is listed twice"),
    ], ids=["no-runs", "no-methods", "csv-no-methods", "unknown-method", "misspelt-kind",
            "duplicate-method"])
    def test_scenario_that_scores_nothing_is_rejected(self, tmp_path, capsys, payload, problem):
        # Each of these once exited 0: n_runs 0 wrote a NaN mean F1, an empty
        # method list wrote an empty report, a kind other than "csv" ran as a
        # synthetic scenario, and a method listed twice was streamed twice per
        # run but reported once.
        scenario = write_json(tmp_path / "scenario.json", payload)
        code = cli.main(["bench", "--scenario", scenario, "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert f"error: {problem}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_csv_scenario_without_labels_is_rejected(self, tmp_path, capsys):
        path = tmp_path / "unlabelled.csv"
        path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in
                                (DATA / "sample_labeled.csv").read_text().splitlines()))
        scenario = write_json(tmp_path / "scenario.json", {"kind": "csv", "path": str(path)})
        code = cli.main(["bench", "--scenario", scenario, "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "error: series carries no labels" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_named_table_scenario_runs(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["bench", "--scenario", "table1", "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("table1: rpe F1=")
        report = json.loads(out.read_text())
        assert (report["scenario"], report["n_runs"]) == ("table1", 20)
        assert list(report["methods"]) == ["rpe", "spe", "iid", "ar"]

    def test_named_table_scenarios_are_accepted(self):
        # Parse-level check only; the full tables run in the acceptance suite.
        parser = cli.build_parser()
        args = parser.parse_args(["bench", "--scenario", "table1", "--out", "r.json"])
        assert args.scenario == "table1"

    @pytest.mark.parametrize("name, run_length, amplitude", [
        ("long_points", 1, 1.0), ("long_runs4", 4, 1.0 / 1.5)])
    def test_long_stream_scenario_files_parse(self, name, run_length, amplitude):
        # Parse-level check only: each file streams 10 runs of 20 000 stamps.
        payload = json.loads((DATA / f"{name}.json").read_text())
        scenario = cli._scenario_from_payload(payload)
        assert scenario.name == name
        assert (scenario.total_len, scenario.train_len) == (20300, 300)
        assert (scenario.n_runs, scenario.base_seed) == (10, 0)
        assert (scenario.run_length, scenario.amplitude_factor) == (run_length, amplitude)
        assert scenario.methods == ("rpe", "spe")


class TestMainContract:
    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        code = cli.main(["train", "--input", str(tmp_path / "nope.csv"),
                         "--output", str(tmp_path / "m.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main([])
