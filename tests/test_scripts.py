"""The scripts under scripts/ call the package's metrics and fidelity APIs; run each at a tiny size."""

import csv
import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
GOLDEN = Path(__file__).parent / "data" / "golden_bank.jsonl"


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


def test_fidelity_check_writes_the_report(tmp_path, capsys):
    out = tmp_path / "fidelity.json"
    code = _load("fidelity_check").main(
        ["--patients", "4", "--snippets", "6", "--episodes-per-patient", "2", "--turns", "5",
         "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text("utf-8"))
    assert sorted(doc) == ["auc_overall", "freq_error", "kl", "n_patients", "per_trait_auc",
                           "semantic_similarity", "strategy_breakdown", "thresholds_met"]
    assert doc["n_patients"] == 4
    assert "threshold kl_divergence" in capsys.readouterr().out


def test_fidelity_check_writes_the_bytes_elicit_validate_writes(tmp_path):
    from elicit.cli import main

    # with no seed, turns or episodes flag, both keep FidelityConfig's defaults
    for flags in (["--episodes-per-patient", "1", "--turns", "5", "--seed", "3"], []):
        flags = ["--bank", str(GOLDEN), *flags]
        assert _load("fidelity_check").main([*flags, "--out", str(tmp_path / "script.json")]) == 0
        assert main(["validate", *flags, "--out", str(tmp_path / "cli.json")]) == 0
        assert (tmp_path / "script.json").read_bytes() == (tmp_path / "cli.json").read_bytes()
