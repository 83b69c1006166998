"""The score report of tools/score_report.py, which diffs two checkouts."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


SHA = r"[0-9a-f]{64}"
# Each CLI command of the report, its exit code and the files it writes.
CLI_LINES = [
    ("train", 0, ["model.json"]),
    ("coherence", 0, []),
    ("detect_warm", 0, ["warm.csv"]),
    ("detect_cold", 0, ["cold.csv"]),
    ("detect_spe", 0, ["spe.csv"]),
    ("detect_n_s0", 0, ["n_s0.csv"]),
    ("detect_ar", 0, ["ar.csv"]),
    ("detect_iid", 0, ["iid.csv"]),
    ("error_no_model", 2, []),
    ("error_no_train", 2, []),
]


def test_report_is_deterministic_and_counts_the_solves():
    # 300 stream-long steps of seed 0 and no tables: first the projection
    # line, whose fixed windows reach both the raise and the QR solve; then
    # one stream line, the same on a second run, where the 271 replayed
    # training windows and every step project through the downdate, never the
    # QR solve. Then the seed's stream-fleet line: 8 series of 150 training
    # stamps (121 replayed windows each) and 300 steps, each series refitting
    # once, at step 100. Then one line per CLI command on the seed's
    # cli-workflow inputs.
    cmd = [sys.executable, str(ROOT / "tools" / "score_report.py"), str(ROOT),
           "--seeds", "0", "--steps", "300", "--tables", "none"]
    first = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    assert first == second
    cli_lines = "".join(
        rf"cli seed 0 {name}: exit {code} stdout {SHA} stderr {SHA}"
        + "".join(rf" {re.escape(f)} {SHA}" for f in files) + r"\n"
        for name, code, files in CLI_LINES
    )
    projection_line = (
        r"projection: calls 5560 raised [1-9]\d* qr_solves [1-9]\d*"
        + "".join(rf" {name} {SHA}" for name in
                  ("a_hat", "kept_rows", "residual", "prelim_residual", "raises"))
        + r"\n"
    )
    assert re.fullmatch(
        projection_line +
        r"stream-long seed 0: sha256 [0-9a-f]{64} max_abs_residual \d\S* "
        r"runtime_warnings 0 projections 571 qr_solves 0 failed 0 at \[\]\n"
        r"stream-fleet seed 0: sha256 [0-9a-f]{64} refits 8 runtime_warnings \d+ "
        r"projections 3368 qr_solves \d+ failed 0 at \[\]\n"
        + cli_lines,
        first,
    )


def test_empty_tables_is_a_usage_error():
    # An empty --tables would silently run no table; "none" is the one way to
    # ask for that.
    cmd = [sys.executable, str(ROOT / "tools" / "score_report.py"), str(ROOT),
           "--seeds", "none", "--tables"]
    result = subprocess.run(cmd, capture_output=True, text=True)
    assert result.returncode == 2
    assert "--tables" in result.stderr


@pytest.mark.parametrize("args, option", [
    (["--seeds", "--tables", "none"], "--seeds"),
    (["--seeds", "0", "none"], "--seeds"),
    (["--steps", "0"], "--steps"),
    (["--steps", "-5"], "--steps"),
    (["--tables", "table5"], "--tables"),
], ids=["empty-seeds", "seeds-and-none", "zero-steps", "negative-steps", "unknown-table"])
def test_bad_option_is_a_usage_error(args, option):
    # An empty --seeds once printed only the projection line and exited 0, so
    # two trees read the same; --steps -5 trained on 295 stamps and exited 0.
    cmd = [sys.executable, str(ROOT / "tools" / "score_report.py"), str(ROOT), *args]
    result = subprocess.run(cmd, capture_output=True, text=True)
    assert result.returncode == 2
    assert option in result.stderr
    assert result.stdout == ""
