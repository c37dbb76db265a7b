"""The script under scripts/ calls the package's runner and metrics APIs; run it at a tiny size."""

import csv
import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ordering_experiment_writes_one_row_per_seed(tmp_path):
    out = tmp_path / "margins.csv"
    code = _load("ordering_experiment").main(
        ["--patients", "4", "--snippets", "6", "--episodes", "2", "--turns", "5",
         "--seeds", "1", "2", "--out", str(out)]
    )
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["seed", "coverage_planned", "coverage_random", "coverage_margin",
                             "aucc_planned", "aucc_random", "aucc_margin"]
    assert [row["seed"] for row in rows] == ["1", "2"]
    # exit 0 only when the planner wins on both margins for every seed
    planner_wins = all(float(row[m]) > 0 for row in rows for m in ("coverage_margin", "aucc_margin"))
    assert code == (0 if planner_wins else 1)
