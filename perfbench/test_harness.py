"""Smoke tests for the benchmark harness at a tiny size.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json

import pytest

import checks
import hostspeed
import run
import workloads
from elicit import runner
from elicit.retrieval import AnchorRetriever

SPEC = run.load_spec()
NAMES = sorted(w["name"] for w in SPEC["workloads"])


def _run(name, tmp_path, trace=False):
    return workloads.run(workloads.tiny(name), seed=3, seconds=0, trace=trace, work_dir=tmp_path, min_rounds=2)


def test_every_declared_workload_has_a_size():
    assert sorted(workloads.WORKLOADS) == sorted(workloads.TINY) == NAMES


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_printed_with_its_unit(name, trace, tmp_path):
    outcome = _run(name, tmp_path, trace)
    assert outcome.correct and outcome.failed == 0 and outcome.attempted > 0, outcome.lines
    lines, result = run.render(SPEC, outcome, trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m, line in zip(declared, lines):
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
    json.dumps(result)  # the last line of a run must be one JSON object


def test_end_to_end_metrics_are_never_zero(tmp_path):
    for name in NAMES:
        outcome = _run(name, tmp_path / name)
        assert all(outcome.metrics[m["name"]] > 0 for m in SPEC["end_to_end"]), (name, outcome.metrics)


def test_a_host_twice_as_slow_gives_the_same_reference_time():
    assert hostspeed.kernel() > 0
    assert hostspeed.scaled(1.0, 0.03, 0.05) == pytest.approx(hostspeed.REFERENCE_S / 0.04)
    assert hostspeed.scaled(2.0, 0.06, 0.10) == pytest.approx(hostspeed.scaled(1.0, 0.03, 0.05))


def _retrieve_from_own_patient(self, query, exclude_patient):
    snippet = self.bank.patient_snippets(exclude_patient)[0]
    self.audit_log.append(snippet.patient_id)
    return snippet, 1.0


@pytest.mark.parametrize("name", ["ordering-small", "fidelity-loo"])
def test_a_self_anchor_is_caught(name, tmp_path, monkeypatch):
    monkeypatch.setattr(AnchorRetriever, "retrieve", _retrieve_from_own_patient)
    outcome = _run(name, tmp_path)
    assert not outcome.correct and outcome.failed > 0
    expected = "fidelity leak check fired" if name == "fidelity-loo" else "anchored on its own patient"
    assert any(expected in line for line in outcome.lines), outcome.lines


def test_a_serial_parallel_byte_mismatch_is_caught(tmp_path, monkeypatch):
    original = runner.run_batch

    def reseeded_when_parallel(cfg, bank, mode, n_episodes, parallel=1, components=None):
        if parallel > 1:
            cfg = dataclasses.replace(cfg, seed=cfg.seed + 1)
        return original(cfg, bank, mode, n_episodes, parallel=parallel, components=components)

    monkeypatch.setattr(runner, "run_batch", reseeded_when_parallel)
    outcome = _run("ordering-small", tmp_path)
    assert not outcome.correct and outcome.failed > 0
    assert any("bytes differ" in line for line in outcome.lines), outcome.lines


def test_checks_read_the_files_back(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "x").mkdir(parents=True)
        (root / "x" / "e.json").write_text(
            json.dumps({"patient_id": "P1", "turns": [{"turn": 1, "anchor_patient_id": "P2"}]})
        )
    assert checks.tree_differences(a, b) == [] and checks.self_anchors(a) == []
    assert checks.tree_digest(a) == checks.tree_digest(b)
    (b / "x" / "e.json").write_text(
        json.dumps({"patient_id": "P1", "turns": [{"turn": 1, "anchor_patient_id": "P1"}]})
    )
    assert checks.tree_differences(a, b) == ["bytes differ: x/e.json"]
    assert checks.self_anchors(b) == ["x/e.json: turn 1 anchored on its own patient P1"]
    assert checks.tree_digest(a) != checks.tree_digest(b)


def test_output_that_changes_when_round_0_runs_again_is_caught(tmp_path, monkeypatch):
    original, calls = runner.EpisodeLog.to_json, []

    def counting_to_json(self):
        calls.append(1)
        return original(self)[:-1] + f', "call": {len(calls)}}}'

    monkeypatch.setattr(runner.EpisodeLog, "to_json", counting_to_json)
    outcome = _run("replay-evaluate", tmp_path)
    assert not outcome.correct and outcome.failed > 0
    assert any("output of round 0 changed" in line for line in outcome.lines), outcome.lines


def test_skipped_parallel_episodes_count_as_failed(tmp_path, monkeypatch):
    original = runner.run_batch

    def skipping_when_parallel(cfg, bank, mode, n_episodes, parallel=1, components=None):
        result = original(cfg, bank, mode, n_episodes, parallel=parallel, components=components)
        if parallel > 1:
            result = dataclasses.replace(result, skipped=result.skipped + (f"{mode}-extra",))
        return result

    monkeypatch.setattr(runner, "run_batch", skipping_when_parallel)
    outcome = _run("ordering-small", tmp_path, trace=True)
    assert outcome.metrics["runner.episode_fail_ratio"] > 0 and outcome.failed > 0
    assert not any("bytes differ" in line for line in outcome.lines), outcome.lines
