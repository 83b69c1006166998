"""The synthetic benchmark: four scenarios, four detectors, twenty runs each.

Scenario ladder (harder as you go down):
  full-amplitude points   — anomalies stand out of the value range
  half-amplitude points   — contextual: inside the range, wrong for the phase
  two-stamp runs          — range anomalies that hit two window rows at once
  four-stamp runs         — range anomalies near the exclusion budget

Each run generates a fresh seeded series, injects labelled anomalies, trains
every detector on the clean prefix, streams the rest, and takes the best F1
over all score thresholds. Reported numbers are means over twenty runs.

Run:  python3 demos/04_benchmark_tables.py       (about a minute)
"""

import dataclasses

from rpe.evaluation import TABLE_SCENARIOS, run_scenario

LABELS = {
    "table1": "full-amplitude points",
    "table2": "half-amplitude points",
    "table3": "two-stamp runs",
    "table4": "four-stamp runs",
}
METHODS = ("rpe", "spe", "iid", "ar")


def main() -> None:
    print(f"{'scenario':<24}" + "".join(f"{m:>8}" for m in METHODS))
    print("-" * (24 + 8 * len(METHODS)))
    for name, label in LABELS.items():
        report = run_scenario(TABLE_SCENARIOS[name])
        cells = "".join(f"{report.methods[m].mean_f1:8.3f}" for m in METHODS)
        print(f"{label:<24}{cells}")

    print("\nwindow-length sensitivity on the two-stamp-run scenario "
          "(robust detector only):")
    for m1 in (10, 30, 50):
        scenario = dataclasses.replace(
            TABLE_SCENARIOS["table3"],
            name=f"window{m1}",
            methods=("rpe",),
            detector_config={"M1": m1},
        )
        score = run_scenario(scenario).methods["rpe"].mean_f1
        note = "  <- too short for the slow components" if m1 == 10 else ""
        print(f"  M1 = {m1:<3}  F1 = {score:.3f}{note}")

    print("\nReading the table: the robust detector holds its F1 as anomalies")
    print("become contextual (row 2) and spread into runs (rows 3-4), while")
    print("the plain projection loses ground to smearing and the Gaussian")
    print("scorer only ever sees the global value range.")


if __name__ == "__main__":
    main()
