"""The README's benchmark table states the F1 that the benchmark checks.

bench/workloads.py holds the same four rows as README_F1, which its
bench-tables workload compares with every run. It is read here with ast, so
the benchmark is not imported."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROWS = {
    "table1": "full-amplitude points",
    "table2": "half-amplitude points",
    "table3": "two-stamp runs",
    "table4": "four-stamp runs",
}


def benchmark_f1() -> dict:
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "README_F1" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/workloads.py assigns no README_F1")


def readme_rows() -> dict:
    """Each table row of README.md as its first cell -> the cells after it."""
    rows = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("|") and len(cells) > 1:
            rows[cells[0]] = cells[1:]
    return rows


def test_readme_table_equals_the_benchmark_f1():
    expected = benchmark_f1()
    assert sorted(expected) == sorted(ROWS)
    rows = readme_rows()
    header = rows["scenario"]
    for table, label in ROWS.items():
        assert dict(zip(header, rows[label])) == expected[table], table
