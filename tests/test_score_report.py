"""The score report of tools/score_report.py, which diffs two checkouts."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_report_is_deterministic_and_counts_the_solves():
    # 300 stream-long steps of seed 0 and no tables: one line, the same on a
    # second run; the 271 replayed training windows and every step project
    # through the downdate, never the QR solve.
    cmd = [sys.executable, str(ROOT / "tools" / "score_report.py"), str(ROOT),
           "--seeds", "0", "--steps", "300", "--tables"]
    first = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    second = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    assert first == second
    assert re.fullmatch(
        r"stream-long seed 0: sha256 [0-9a-f]{64} max_abs_residual \d\S* "
        r"runtime_warnings 0 projections 571 qr_solves 0 failed 0 at \[\]\n",
        first,
    )
