import argparse
import contextlib
import copy
import errno
import hashlib
import io
import itertools
import json
import os
import socket
import subprocess
import sys
import tempfile
import urllib.error
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import elicit
from elicit import cli
from elicit.belief import MAX_TURNS
from elicit.cli import main
from elicit.episode_log import EpisodeLog
from elicit.ontology import ALL_TRAITS, STRATEGY_ORDER
from elicit.prompting import load_prompt

GOLDEN = Path(__file__).parent / "data" / "golden_bank.jsonl"


def run_cli(*argv):
    return main(list(argv))


def test_unknown_subcommand(capsys):
    assert run_cli("frobnicate") == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_no_subcommand(capsys):
    assert run_cli() == 1


def test_ingest_golden(capsys):
    assert run_cli("ingest", "--in", str(GOLDEN)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["snippets"] == 4


def test_ingest_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"patient_id": "A"}\n')
    assert run_cli("ingest", "--in", str(bad)) == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("traits", None), ("patient_id", None), ("scenario_id", True)])
def test_ingest_a_wrong_typed_field_exits_1_naming_the_line(tmp_path, capsys, key, value):
    first = json.loads(GOLDEN.read_text("utf-8").splitlines()[0])
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps(dict(first, **{key: value})) + "\n")
    assert run_cli("ingest", "--in", str(bad)) == 1
    assert capsys.readouterr().err.startswith(f"error: line 1: {key} ")


@pytest.mark.parametrize("patient_id", ["P\x00", "x/../../escaped"])
def test_run_on_a_patient_id_that_is_no_file_name_exits_1_before_writing(tmp_path, capsys, patient_id):
    # the id ends each episode log's file name, so it is refused at ingest
    lines = GOLDEN.read_text("utf-8").splitlines()
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([lines[0], json.dumps(dict(json.loads(lines[1]), patient_id=patient_id))]) + "\n")
    out = tmp_path / "logs"
    assert run_cli("run", "--bank", str(bad), "--episodes", "2", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: line 2: patient_id must not hold '/' or U+0000")
    assert not out.exists()


def _synth_with_scenario_id(tmp_path, index, scenario_id) -> tuple[int, Path]:
    """`synth --ontology` on the embedded ontology with `scenarios[index].id` set to `scenario_id`."""
    from importlib import resources

    doc = json.loads(resources.files("elicit").joinpath("data/ontology.json").read_text("utf-8"))
    doc["scenarios"][index]["id"] = scenario_id
    ont = tmp_path / "ont.json"
    ont.write_text(json.dumps(doc), encoding="utf-8")
    bank = tmp_path / "bank.jsonl"
    return run_cli("synth", "--patients", "2", "--snippets", "3", "--ontology", str(ont), "--out", str(bank)), bank


def test_synth_with_a_wrong_typed_ontology_value_exits_1_naming_it(tmp_path, capsys):
    code, bank = _synth_with_scenario_id(tmp_path, 2, "3")
    assert code == 1
    assert capsys.readouterr().err == "error: scenarios[2]: 'id' must be int, got '3'\n"
    assert not bank.exists()


@pytest.mark.parametrize("index,scenario_id,problem", [(2, 99, "not in 1..15"), (3, 3, "a duplicate")])
def test_synth_with_a_scenario_id_outside_1_to_15_or_repeated_exits_1_naming_it(
    tmp_path, capsys, index, scenario_id, problem
):
    # the bank synth would write from it has a scenario_id that ingest rejects, or one scenario twice
    code, bank = _synth_with_scenario_id(tmp_path, index, scenario_id)
    assert code == 1
    assert capsys.readouterr().err == f"error: scenarios[{index}]: scenario id {scenario_id} is {problem}\n"
    assert not bank.exists()


def test_synth_then_run_then_evaluate(tmp_path, capsys):
    bank = tmp_path / "bank.jsonl"
    logs = tmp_path / "logs"
    report = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"

    assert run_cli("synth", "--patients", "5", "--snippets", "10", "--seed", "1",
                   "--out", str(bank)) == 0
    assert run_cli("run", "--bank", str(bank), "--mode", "tpa", "--selector", "heuristic",
                   "--realiser", "template", "--detector", "rule", "--episodes", "5",
                   "--seed", "1", "--out", str(logs)) == 0
    episode_files = [p for p in logs.glob("*.json") if p.name != "manifest.json"]
    assert len(episode_files) == 5
    manifest = json.loads((logs / "manifest.json").read_text())
    assert len(manifest["episodes"]) == 5
    assert manifest["versions"]["artifact"]

    assert run_cli("evaluate", "--logs", str(logs), "--out", str(report),
                   "--csv", str(csv_path)) == 0
    doc = json.loads(report.read_text())
    assert doc["n_episodes"] == 5
    assert csv_path.exists()
    assert (tmp_path / "curves.csv").exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "episode_id,patient_id,coverage,precision,recall,f1,aucc"


def test_evaluate_empty_dir(tmp_path, capsys):
    empty = tmp_path / "none"
    empty.mkdir()
    assert run_cli("evaluate", "--logs", str(empty)) == 1
    assert "no non-aborted" in capsys.readouterr().err


@pytest.mark.parametrize("given", ["missing", "file"])
def test_evaluate_on_a_logs_path_that_is_no_directory_exits_1_naming_it(tmp_path, capsys, given):
    logs = tmp_path / "logs"
    if given == "file":
        logs.write_text("")
    assert run_cli("evaluate", "--logs", str(logs)) == 1
    assert capsys.readouterr().err == f"error: {logs}: not a directory\n"


def test_run_rejects_zero_episodes(tmp_path, capsys):
    bank = tmp_path / "bank.jsonl"
    assert run_cli("synth", "--patients", "2", "--snippets", "4", "--seed", "2",
                   "--out", str(bank)) == 0
    assert run_cli("run", "--bank", str(bank), "--mode", "tpa", "--episodes", "0",
                   "--out", str(tmp_path / "logs")) == 1


def test_run_replay_mode(tmp_path):
    bank = tmp_path / "bank.jsonl"
    logs = tmp_path / "logs"
    assert run_cli("synth", "--patients", "3", "--snippets", "6", "--seed", "3",
                   "--out", str(bank)) == 0
    assert run_cli("run", "--bank", str(bank), "--mode", "replay", "--out", str(logs)) == 0
    episode_files = [p for p in logs.glob("*.json") if p.name != "manifest.json"]
    assert len(episode_files) == 3


def test_replay_builds_its_detector_alone(tmp_path, monkeypatch):
    from elicit import runner

    def never(*args, **kwargs):
        raise AssertionError("replay built a component stack")

    monkeypatch.setattr(runner, "build_components", never)
    transcript = tmp_path / "t.jsonl"
    _write_transcript(transcript, ["Good, you know what I mean."])
    assert run_cli("replay", "--in", str(transcript), "--ground-truth", "F6", "--out", str(tmp_path / "logs")) == 0


def test_run_in_replay_mode_with_the_remote_encoder_posts_no_embedding_request(tmp_path, monkeypatch):
    # replay mode runs the detector alone, so it builds no retrieval index and embeds no doctor text
    service, posted = _fake_llm_service(), []

    def counting(path, body):
        posted.append(path)
        return service(path, body)

    monkeypatch.setattr("elicit.cli.HttpTransport", lambda config: counting)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("encoder.kind = remote\ndetector.kind = llm\n")
    assert run_cli("run", "--bank", str(GOLDEN), "--mode", "replay", "--config", str(cfg),
                   "--out", str(tmp_path / "logs")) == 0
    assert posted and set(posted) == {"/v1/chat/completions"}


def test_replay_subcommand(tmp_path):
    transcript = tmp_path / "t.jsonl"
    lines = [
        {"question": "How was it?", "response": "Good, you know what I mean, he said mideast."},
        {"question": "And then?", "response": "We laughed about it."},
    ]
    transcript.write_text("\n".join(json.dumps(l) for l in lines))
    out = tmp_path / "logs"
    assert run_cli("replay", "--in", str(transcript), "--ground-truth", "F2,F6",
                   "--out", str(out)) == 0
    log = json.loads(next(out.glob("*.json")).read_text())
    assert log["mode"] == "replay"
    assert set(log["ground_truth"]) <= set(log["turns"][-1]["confirmed"])


def test_replay_bad_ground_truth(tmp_path, capsys):
    transcript = tmp_path / "t.jsonl"
    transcript.write_text(json.dumps({"question": "q", "response": "r"}))
    assert run_cli("replay", "--in", str(transcript), "--ground-truth", "F42",
                   "--out", str(tmp_path / "logs")) == 1


def test_validate_subcommand(tmp_path):
    bank = tmp_path / "bank.jsonl"
    out = tmp_path / "fidelity.json"
    assert run_cli("synth", "--patients", "4", "--snippets", "8", "--seed", "4",
                   "--out", str(bank)) == 0
    assert run_cli("validate", "--bank", str(bank), "--episodes-per-patient", "1",
                   "--turns", "10", "--seed", "4", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["n_patients"] == 4
    assert "thresholds_met" in doc


def _ontology_naming_every_strategy_in_each_topic(tmp_path) -> Path:
    # each topic name holds every strategy's display name, so no question passes the selector's check
    from importlib import resources

    doc = json.loads(resources.files("elicit").joinpath("data/ontology.json").read_text("utf-8"))
    every_name = " and ".join(s["display_name"] for s in doc["strategies"])
    for scenario in doc["scenarios"]:
        scenario["name"] += f" ({every_name})"
    ontology = tmp_path / "ontology.json"
    ontology.write_text(json.dumps(doc))
    return ontology


def test_validate_exits_1_when_every_question_names_its_strategy(tmp_path, capsys):
    ontology = _ontology_naming_every_strategy_in_each_topic(tmp_path)
    assert run_cli("validate", "--bank", str(GOLDEN), "--ontology", str(ontology),
                   "--episodes-per-patient", "1", "--turns", "2") == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("mode", ["tpa", "random"])
def test_run_exits_1_when_every_question_names_its_strategy(tmp_path, capsys, mode):
    # the heuristic templates are fixed, so the ontology is at fault: no episode aborts as if a backend had
    ontology = _ontology_naming_every_strategy_in_each_topic(tmp_path)
    out = tmp_path / "logs"
    argv = ["run", "--bank", str(GOLDEN), "--mode", mode, "--episodes", "1", "--ontology", str(ontology)]
    assert run_cli(*argv, "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: template question leaked vocabulary: ")
    assert not out.exists()


def test_run_on_a_one_patient_bank_exits_1_with_an_error(tmp_path, capsys):
    bank = tmp_path / "bank.jsonl"
    assert run_cli("synth", "--patients", "1", "--snippets", "4", "--out", str(bank)) == 0
    capsys.readouterr()
    out = tmp_path / "logs"
    assert run_cli("run", "--bank", str(bank), "--episodes", "1", "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: every snippet belongs to excluded patient 'P001'\n"
    assert not out.exists()


def test_an_ontology_file_that_is_not_json_exits_1_naming_it(tmp_path, capsys):
    ontology = tmp_path / "ontology.json"
    ontology.write_text("{not json", encoding="utf-8")
    assert run_cli("synth", "--patients", "2", "--snippets", "3", "--ontology", str(ontology),
                   "--out", str(tmp_path / "bank.jsonl")) == 1
    assert capsys.readouterr().err.startswith(f"error: {ontology}: invalid JSON (")


def test_replay_with_an_unknown_ground_truth_trait_prints_it_quoted_once(tmp_path, capsys):
    transcript = tmp_path / "t.jsonl"
    _write_transcript(transcript, ["It went fine, as they say."])
    assert run_cli("replay", "--in", str(transcript), "--ground-truth", "F11",
                   "--out", str(tmp_path / "logs")) == 1
    assert capsys.readouterr().err == "error: unknown trait id: 'F11'\n"


@pytest.mark.parametrize("given", ["bank", "transcript", "config"])
def test_a_file_that_is_not_utf8_exits_1_naming_it(tmp_path, capsys, given):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("tau = 0.5 # \xe9t\xe9\n".encode("latin-1"))
    transcript = tmp_path / "t.jsonl"
    _write_transcript(transcript, ["It went fine, as they say."])
    argv = {
        "bank": ["ingest", "--in", str(bad)],
        "transcript": ["detect", "--in", str(bad)],
        "config": ["detect", "--in", str(transcript), "--config", str(bad)],
    }[given]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text (")


@pytest.mark.parametrize("flag", ["--turns", "--episodes-per-patient"])
def test_validate_with_a_zero_count_exits_1_with_an_error(tmp_path, capsys, flag):
    out = tmp_path / "f.json"
    assert run_cli("validate", "--bank", str(GOLDEN), flag, "0", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("turns", ["0", str(MAX_TURNS + 1), str(10**20)])
@pytest.mark.parametrize("command", ["run", "replay", "validate"])
def test_a_turn_count_outside_one_to_the_bound_exits_1_with_an_error(tmp_path, capsys, command, turns):
    transcript = tmp_path / "t.jsonl"
    _write_transcript(transcript, ["It went fine, as they say."])
    out = tmp_path / "out"
    argv = {
        "run": ["run", "--bank", str(GOLDEN), "--episodes", "1"],
        "replay": ["replay", "--in", str(transcript), "--ground-truth", "F10"],
        "validate": ["validate", "--bank", str(GOLDEN)],
    }[command]
    assert run_cli(*argv, "--turns", turns, "--out", str(out)) == 1
    name = "turns" if command == "validate" else "max_turns"
    assert capsys.readouterr().err == f"error: {name} must be in 1..{MAX_TURNS}, got {turns}\n"
    assert not out.exists()


def test_replay_mode_with_a_negative_episode_count_exits_1_with_an_error(tmp_path, capsys):
    out = tmp_path / "logs"
    assert run_cli("run", "--bank", str(GOLDEN), "--mode", "replay", "--episodes", "-3", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: --episodes must be >= 0")
    assert not out.exists()


@pytest.mark.parametrize("parallel", ["0", "-3"])
def test_run_with_a_parallel_count_below_one_exits_1_with_an_error(tmp_path, capsys, parallel):
    out = tmp_path / "logs"
    assert run_cli("run", "--bank", str(GOLDEN), "--episodes", "1", "--parallel", parallel, "--out", str(out)) == 1
    assert capsys.readouterr().err == "error: --parallel must be >= 1\n"
    assert not out.exists()


def _written(out: Path):
    """The bytes `validate` wrote to `out`, or those `run` wrote under it with the manifest's timestamp left out."""
    if out.is_file():
        return out.read_bytes()
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    manifest = json.loads(files.pop("manifest.json"))
    del manifest["created_unix"]
    return files, manifest


def test_count_and_seed_flags_default_to_the_config_dataclasses(tmp_path):
    from elicit.fidelity import FidelityConfig
    from elicit.runner import EpisodeConfig

    episode, fidelity = EpisodeConfig(), FidelityConfig()
    commands = {
        "run": (["run", "--bank", str(GOLDEN), "--episodes", "2"],
                ["--turns", str(episode.max_turns), "--seed", str(episode.seed)]),
        "validate": (["validate", "--bank", str(GOLDEN)],
                     ["--episodes-per-patient", str(fidelity.episodes_per_patient),
                      "--turns", str(fidelity.turns), "--seed", str(fidelity.seed)]),
    }
    for name, (command, defaults) in commands.items():
        bare, spelled = tmp_path / f"{name}-bare", tmp_path / f"{name}-spelled"
        assert run_cli(*command, "--out", str(bare)) == 0
        assert run_cli(*command, *defaults, "--out", str(spelled)) == 0
        assert _written(bare) == _written(spelled)


# sha256 of `elicit validate --bank tests/data/golden_bank.jsonl
# --episodes-per-patient 2 --seed 1`, recorded before leave-one-out fidelity
# ran the runner's patient turn
VALIDATE_GOLDEN_SHA256 = "a11288a037e63970b123b3778a0ab38d7f1a4db6b64c3d92794cdeeeeb6d655b"


def test_validate_report_on_the_golden_bank_keeps_its_bytes(tmp_path):
    out = tmp_path / "validate.json"
    assert run_cli("validate", "--bank", str(GOLDEN), "--episodes-per-patient", "2", "--seed", "1",
                   "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VALIDATE_GOLDEN_SHA256


def test_report_subcommand(tmp_path):
    bank = tmp_path / "bank.jsonl"
    logs = tmp_path / "logs"
    out = tmp_path / "csv"
    run_cli("synth", "--patients", "3", "--snippets", "6", "--seed", "5", "--out", str(bank))
    run_cli("run", "--bank", str(bank), "--episodes", "3", "--seed", "5", "--out", str(logs))
    assert run_cli("report", "--logs", str(logs), "--out-dir", str(out)) == 0
    assert (out / "report.csv").exists()
    assert (out / "curves.csv").read_text().splitlines()[0] == "turn,mean_cov,ci95_low,ci95_high"
    assert (out / "strategy_dist.csv").read_text().splitlines()[0] == "phase,strategy,proportion"


def test_detect_subcommand(tmp_path, capsys):
    transcript = tmp_path / "t.jsonl"
    transcript.write_text(json.dumps({"question": "q", "response": "circle of life, as they say"}))
    out = tmp_path / "det.jsonl"
    assert run_cli("detect", "--in", str(transcript), "--backend", "rule", "--out", str(out)) == 0
    doc = json.loads(out.read_text().splitlines()[0])
    assert doc["labels"]["F10"] is True
    assert doc["labels"]["F6"] is True
    assert doc["labels"]["F1"] is False


def test_a_raw_line_separator_inside_a_transcript_response_is_kept(tmp_path):
    # JSON allows U+2028 raw inside a string, so only "\n" ends a transcript line
    response = "circle of life\u2028as they say"
    transcript = tmp_path / "t.jsonl"
    transcript.write_text(json.dumps({"question": "q", "response": response}, ensure_ascii=False) + "\n", "utf-8")
    out, logs = tmp_path / "det.jsonl", tmp_path / "logs"
    assert run_cli("detect", "--in", str(transcript), "--backend", "rule", "--out", str(out)) == 0
    assert [json.loads(line)["evidence"] for line in out.read_text("utf-8").split("\n") if line] == [
        {"F6": "as they say", "F10": "circle of life"}
    ]
    assert run_cli("replay", "--in", str(transcript), "--ground-truth", "F6", "--out", str(logs)) == 0
    log = EpisodeLog.from_json((logs / "replay-0000-manual.json").read_text("utf-8"))
    assert [t.response for t in log.turns] == [response]


def test_run_exits_2_when_every_episode_aborts(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("ELICIT_API_KEY", raising=False)
    bank = tmp_path / "bank.jsonl"
    assert run_cli("synth", "--patients", "2", "--snippets", "4", "--seed", "8",
                   "--out", str(bank)) == 0
    # llm selector with no credentials: every episode aborts on the auth error
    code = run_cli("run", "--bank", str(bank), "--mode", "tpa", "--selector", "llm",
                   "--episodes", "2", "--seed", "8", "--out", str(tmp_path / "logs"))
    assert code == 2
    logs = [p for p in (tmp_path / "logs").glob("*.json") if p.name != "manifest.json"]
    assert logs and all(json.loads(p.read_text())["aborted"] for p in logs)


def test_config_file_overrides(tmp_path):
    from elicit.config import load_settings

    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "emitter.M = 6.5\n"
        "emitter.strategy_gain = 2.0\n"
        "detector.kind = rule\n"
    )
    settings = load_settings(cfg)
    assert settings.episode.emission.M == 6.5
    assert settings.episode.emission.strategy_gain == 2.0


def test_config_rejects_unknown_key(tmp_path):
    from elicit.config import ConfigError, load_settings

    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense.key = 1\n")
    with pytest.raises(ConfigError):
        load_settings(cfg)
    # a removed key fails the same way
    cfg.write_text("emitter.affinity_enabled = true\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_settings(cfg)
    # the asked strategy's boost is the one emission hook
    cfg.write_text("# question/definition affinity\nemitter.affinity_weight = 0.5\n")
    with pytest.raises(ConfigError, match="^line 2: unknown config key 'emitter.affinity_weight'$"):
        load_settings(cfg)
    # --parallel is the one bound on the backend requests in flight
    cfg.write_text("backend.max_concurrency = 4\n")
    with pytest.raises(ConfigError, match="^line 1: unknown config key 'backend.max_concurrency'$"):
        load_settings(cfg)


def test_config_lines_end_at_newline_only(tmp_path):
    from elicit.config import ConfigError, load_settings

    # a form feed or U+2028 inside a comment stays in the comment; blank lines still count
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# see page 2\x0c of the notes\nselector.kind = heuristic\n", encoding="utf-8")
    assert load_settings(cfg).episode.selector_kind == "heuristic"
    cfg.write_text("# a\u2028b\x0c c\r\n\n\x0cnonsense = 1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="^line 3: unknown config key 'nonsense'$"):
        load_settings(cfg)


# every config key: a non-default value as written in the file, the value it parses to,
# and where the run reads it (the episode config, the backend client or the ontology)
SETTINGS_TABLE = [
    ("selector.kind", "llm", "llm", lambda seen: seen["cfg"].selector_kind),
    ("selector.temperature", "0.25", 0.25, lambda seen: seen["cfg"].selector_temperature),
    ("selector.prompt_dir", "prompts/custom", "prompts/custom", lambda seen: seen["cfg"].prompt_dir),
    ("realiser.kind", "llm", "llm", lambda seen: seen["cfg"].realiser_kind),
    ("realiser.temperature", "0.35", 0.35, lambda seen: seen["cfg"].realiser_temperature),
    ("detector.kind", "llm", "llm", lambda seen: seen["cfg"].detector_kind),
    ("encoder.kind", "remote", "remote", lambda seen: seen["cfg"].encoder_kind),
    ("emitter.M", "5.5", 5.5, lambda seen: seen["cfg"].emission.M),
    ("emitter.max_traits", "3", 3, lambda seen: seen["cfg"].emission.max_traits_per_turn),
    ("emitter.strategy_gain", "1.5", 1.5, lambda seen: seen["cfg"].emission.strategy_gain),
    ("backend.endpoint", "http://localhost:9", "http://localhost:9", lambda seen: seen["client"].config.endpoint),
    ("backend.model", "gen-model", "gen-model", lambda seen: seen["client"].config.model),
    ("backend.embed_model", "embed-model", "embed-model", lambda seen: seen["client"].config.embed_model),
    ("backend.timeout_s", "12.5", 12.5, lambda seen: seen["client"].config.timeout_s),
    ("tau", "0.85", 0.85, lambda seen: seen["cfg"].tau),
    ("ontology", "custom_ontology.json", "custom_ontology.json", lambda seen: seen["ontology"].version),
]
# the custom ontology's version is its file name, so the ontology row can read the loaded one back
CUSTOM_ONTOLOGY_VERSION = "custom_ontology.json"


def _run_capturing(monkeypatch, work_dir, config_text, *flags):
    """`elicit run` up to the episodes: returns what the components and batch receive, and the manifest."""
    from importlib import resources

    from elicit import runner
    from elicit.episode_log import BatchResult

    monkeypatch.chdir(work_dir)
    ontology = json.loads(resources.files("elicit").joinpath("data/ontology.json").read_text("utf-8"))
    ontology["version"] = CUSTOM_ONTOLOGY_VERSION
    (work_dir / "custom_ontology.json").write_text(json.dumps(ontology))
    (work_dir / "run.cfg").write_text(config_text)
    seen = {}

    def capture_components(cfg, bank, ontology, client=None):
        seen.update(built=cfg, ontology=ontology, client=client)

    def capture_batch(cfg, bank, mode, n_episodes, parallel=1, components=None):
        seen["cfg"] = cfg
        return BatchResult(logs=(), skipped=())

    # the run command imports these from runner when it runs, so they are patched there
    monkeypatch.setattr(runner, "build_components", capture_components)
    monkeypatch.setattr(runner, "run_batch", capture_batch)
    assert run_cli("synth", "--patients", "2", "--snippets", "4", "--seed", "1", "--out", "bank.jsonl") == 0
    assert run_cli("run", "--bank", "bank.jsonl", "--episodes", "1", "--config", "run.cfg",
                   "--out", "logs", *flags) == 0
    return seen, json.loads((work_dir / "logs" / "manifest.json").read_text())


@pytest.fixture(scope="module")
def every_key_set(tmp_path_factory):
    config_text = "".join(f"{key} = {raw}\n" for key, raw, _, _ in SETTINGS_TABLE)
    with pytest.MonkeyPatch.context() as mp:
        return _run_capturing(mp, tmp_path_factory.mktemp("every-key"), config_text)


def test_settings_table_covers_every_config_key():
    from elicit.config import KEYS

    assert len(SETTINGS_TABLE) == 16
    assert [key for key, *_ in SETTINGS_TABLE] == list(KEYS)


@pytest.mark.parametrize("key,raw,value,read", SETTINGS_TABLE, ids=[row[0] for row in SETTINGS_TABLE])
def test_each_config_key_reaches_the_run_and_the_manifest(every_key_set, key, raw, value, read):
    seen, manifest = every_key_set
    assert read(seen) == value
    assert manifest["settings"][key] == value
    assert set(manifest["settings"]) == {k for k, *_ in SETTINGS_TABLE}


def test_cli_flags_win_over_the_config_file(tmp_path, monkeypatch):
    config_text = "selector.kind = llm\nrealiser.kind = llm\ndetector.kind = llm\n"
    seen, manifest = _run_capturing(
        monkeypatch, tmp_path, config_text,
        "--selector", "heuristic", "--realiser", "template", "--detector", "rule",
        "--turns", "7", "--seed", "3", "--ontology", "custom_ontology.json",
    )
    cfg = seen["cfg"]
    assert (cfg.selector_kind, cfg.realiser_kind, cfg.detector_kind) == ("heuristic", "template", "rule")
    assert (cfg.max_turns, cfg.seed) == (7, 3)
    assert seen["built"] == cfg  # the components are built from the flags' kinds, too
    assert seen["ontology"].version == CUSTOM_ONTOLOGY_VERSION
    assert manifest["settings"]["selector.kind"] == "heuristic"
    assert manifest["settings"]["ontology"] == "custom_ontology.json"


def test_readme_configuration_block_lists_exactly_the_config_keys():
    import re

    from elicit.config import KEYS

    readme = (Path(__file__).parent.parent / "README.md").read_text("utf-8")
    section = readme.split("## Configuration", 1)[1]
    block = section.split("```", 2)[1]
    assert sorted(re.findall(r"([\w.]+) = ", block)) == sorted(KEYS)


def test_readme_layout_names_every_module():
    import re

    root = Path(__file__).parent.parent
    block = (root / "README.md").read_text("utf-8").split("## Layout", 1)[1].split("```", 2)[1]
    modules = {p.name for p in (root / "src" / "elicit").glob("*.py")} - {"__init__.py"}
    assert modules <= set(re.findall(r"^  (\w+\.py) ", block, re.MULTILINE))


def test_readme_commands_parse_and_name_scripts_that_exist():
    import re
    import shlex

    from elicit.cli import UsageError, _build_parser

    root = Path(__file__).parent.parent
    readme = (root / "README.md").read_text("utf-8")
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", readme, re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            commands += [c.strip() for c in line.split("#", 1)[0].split("&&") if c.strip()]
    elicit = [shlex.split(c)[1:] for c in commands if c.startswith("elicit ")]
    scripts = [shlex.split(c)[1] for c in commands if c.startswith("python scripts/")]
    assert elicit and scripts
    for argv in elicit:
        try:
            parsed = _build_parser().parse_args(argv)
        except UsageError as e:
            pytest.fail(f"README command `elicit {shlex.join(argv)}` does not parse: {e}")
        assert _build_parser(argv[:1]).parse_args(argv) == parsed
    assert [s for s in scripts if not (root / s).is_file()] == []


def _parsed(parse, argv):
    """What `parse(argv)` gives: the Namespace's fields, the usage error's text, or the exit code and help printed."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return vars(parse(argv))
    except cli.UsageError as e:
        return str(e)
    except SystemExit as e:
        return e.code, out.getvalue()


def _usage_cases(name):
    """`-h`, each missing required flag, each bad choice and each non-integer count of one command."""
    flags = cli._COMMANDS[name][2]
    value = {flag: "1" if kwargs.get("type") is int else "v" for flag, kwargs in flags.items()}
    required = [flag for flag, kwargs in flags.items() if kwargs.get("required")]
    complete = [tok for flag in required for tok in (flag, value[flag])]
    yield [name, "-h"]
    for flag in required:
        yield [name, *(tok for other in required if other != flag for tok in (other, value[other]))]
    for flag, kwargs in flags.items():
        if "choices" in kwargs:
            yield [name, *complete, flag, "nope"]
        if kwargs.get("type") is int:
            yield [name, *complete, flag, "x"]


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_each_commands_usage_errors_and_help_read_alike_from_its_own_parser_and_the_full_one(name):
    for argv in _usage_cases(name):
        alone = _parsed(cli._build_parser([name]).parse_args, argv)
        assert alone == _parsed(cli._build_parser().parse_args, argv)
        if argv[1:] == ["-h"]:
            assert alone[0] == 0 and alone[1].startswith(f"usage: elicit {name}")
        else:
            assert alone.startswith(f"elicit {name}: "), argv


_VALUES = ["1", "-1", "x", "", "tpa", "replay", "rule", "llm", "F2,F6", "--"]
_JUNK = ["-h", "--help", "--bogus", "-x", "--pat", "--out=o", "--logs=", "frobnicate", "evaluate", "run"]


@st.composite
def _argvs(draw):
    """A command, or a junk token, then flag-value pairs of that command with junk tokens among them."""
    name = draw(st.sampled_from(list(cli._COMMANDS)))
    flags = cli._COMMANDS[name][2]
    pairs = []
    for flag in draw(st.lists(st.sampled_from(list(flags)), max_size=6)):
        pairs.append((flag, draw(st.sampled_from([*flags[flag].get("choices", ["1"]), *_VALUES]))))
    if draw(st.booleans()):  # so that many draws give every required flag and parse
        pairs += [(flag, "1") for flag, kwargs in flags.items() if kwargs.get("required")]
    argv = [draw(st.sampled_from([name] * 4 + _JUNK)), *itertools.chain.from_iterable(pairs)]
    for token in draw(st.lists(st.sampled_from(_VALUES + _JUNK), max_size=2)):
        argv.insert(draw(st.integers(1, len(argv))), token)
    return argv


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_mains_parse_reads_any_argv_as_the_full_parser_does(argv):
    assert _parsed(cli._parse, argv) == _parsed(cli._build_parser().parse_args, argv)


def test_a_command_builds_its_own_subparser_alone(golden_logs, tmp_path, monkeypatch):
    # building all eight subparsers was about half of a short evaluate or report call
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    assert run_cli("evaluate", "--logs", str(golden_logs), "--out", str(tmp_path / "r.json")) == 0
    assert built == ["evaluate"]


def test_the_module_entry_point_parses_sys_argv():
    src = str(Path(elicit.__file__).resolve().parents[1])
    env = dict(os.environ, COLUMNS="200",  # one usage line, as it is wrapped to the terminal's width
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def elicit_cli(*argv):
        return subprocess.run([sys.executable, "-m", "elicit.cli", *argv], env=env, capture_output=True, text=True,
                              timeout=60)

    usage = "usage: elicit [-h] {ingest,synth,run,replay,evaluate,validate,report,detect} ..."
    every = elicit_cli("-h")
    assert every.returncode == 0 and every.stdout.startswith(usage)
    one = elicit_cli("evaluate", "-h")
    assert one.returncode == 0 and one.stdout.startswith("usage: elicit evaluate")
    unknown = elicit_cli("frobnicate")
    assert unknown.returncode == 1 and unknown.stdout == "" and usage in unknown.stderr


def test_deterministic_pipeline_runs_with_networking_disabled(tmp_path, monkeypatch):
    # only the backends module may open sockets; the deterministic stack never does
    def no_network(*args, **kwargs):
        raise AssertionError("network access attempted during deterministic run")

    monkeypatch.setattr(socket, "socket", no_network)
    monkeypatch.setattr(socket, "create_connection", no_network)

    bank = tmp_path / "bank.jsonl"
    logs = tmp_path / "logs"
    assert run_cli("synth", "--patients", "3", "--snippets", "6", "--seed", "6",
                   "--out", str(bank)) == 0
    assert run_cli("run", "--bank", str(bank), "--episodes", "3", "--seed", "6",
                   "--out", str(logs)) == 0
    assert run_cli("evaluate", "--logs", str(logs), "--out", str(tmp_path / "r.json")) == 0
    assert run_cli("validate", "--bank", str(bank), "--episodes-per-patient", "1",
                   "--turns", "5", "--seed", "6", "--out", str(tmp_path / "f.json")) == 0


def test_run_with_remote_encoder_and_no_llm_kinds_fails_with_a_message(tmp_path, monkeypatch, capsys):
    # the remote encoder needs a backend client even when every other kind is offline
    monkeypatch.delenv("ELICIT_API_KEY", raising=False)
    bank = tmp_path / "bank.jsonl"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("encoder.kind = remote\n")
    assert run_cli("synth", "--patients", "3", "--snippets", "4", "--seed", "9",
                   "--out", str(bank)) == 0
    code = run_cli("run", "--bank", str(bank), "--episodes", "1", "--seed", "9",
                   "--config", str(cfg), "--out", str(tmp_path / "logs"))
    assert code in (1, 2)
    assert "ELICIT_API_KEY" in capsys.readouterr().err


def _write_transcript(path, responses):
    path.write_text("\n".join(json.dumps({"question": "And then?", "response": r}) for r in responses))


def test_replay_honours_config_tau(tmp_path):
    # a first-turn F6 positive gives a posterior mean of 2/3, which latches at tau 0.6 but not 0.9
    transcript = tmp_path / "t.jsonl"
    _write_transcript(transcript, ["It went fine, you know what I mean.", "We left.", "Then home."])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tau = 0.9\n")
    out = tmp_path / "logs"
    assert run_cli("replay", "--in", str(transcript), "--ground-truth", "F6",
                   "--config", str(cfg), "--out", str(out)) == 0
    log = json.loads(next(out.glob("*.json")).read_text())
    assert log["tau"] == 0.9
    assert log["turns"][-1]["confirmed"] == []


@pytest.mark.parametrize("line", ["tau = nan", "tau = inf", "tau = 1.5", "tau = -0.1",
                                  "emitter.M = nan", "emitter.strategy_gain = nan",
                                  "backend.timeout_s = nan", "backend.timeout_s = inf", "backend.timeout_s = 0",
                                  "selector.temperature = nan", "selector.temperature = inf",
                                  "realiser.temperature = -2", "realiser.temperature = nan",
                                  "detector.kind = bert", "encoder.kind = bert", "backend.max_concurrency = 4",
                                  "emitter.affinity_weight = 0.5"])
@pytest.mark.parametrize("command", ["run", "replay", "detect"])
def test_an_out_of_range_setting_exits_1_with_an_error(tmp_path, capsys, command, line):
    transcript = tmp_path / "t.jsonl"
    _write_transcript(transcript, ["It went fine, as they say."])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    argv = {
        "run": ["run", "--bank", str(GOLDEN), "--episodes", "1"],
        "replay": ["replay", "--in", str(transcript), "--ground-truth", "F10"],
        "detect": ["detect", "--in", str(transcript)],
    }[command]
    assert run_cli(*argv, "--config", str(cfg), "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


# http.client would raise InvalidURL, which no command handles, on the first request to the last two
@pytest.mark.parametrize("endpoint", ["localhost:8000", "http://example.com:abc", "http://exa mple.com"])
def test_an_endpoint_that_is_not_an_http_url_is_a_config_error_not_a_backend_failure(tmp_path, monkeypatch, capsys,
                                                                                     endpoint):
    monkeypatch.setenv("ELICIT_API_KEY", "k")
    monkeypatch.setattr("elicit.backends.time.sleep", lambda s: None)
    calls = []

    def urlopen(req, timeout=None):
        calls.append(req.full_url)
        raise urllib.error.URLError("unknown url type")

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"backend.endpoint = {endpoint}\n")
    out = tmp_path / "out"
    code = run_cli("run", "--bank", str(GOLDEN), "--episodes", "1", "--selector", "llm",
                   "--config", str(cfg), "--out", str(out))
    assert (code, calls) == (1, [])
    assert capsys.readouterr().err == f"error: endpoint must be an http(s) URL with a host, got {endpoint!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["ontology", "selector.prompt_dir"])
def test_a_config_value_with_a_nul_character_exits_1_naming_the_line(tmp_path, capsys, key):
    # open() raises ValueError, which no command handles, on a path that holds one
    transcript = tmp_path / "t.jsonl"
    _write_transcript(transcript, ["It went fine, as they say."])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"detector.kind = llm\n{key} = custom\x00ontology.json\n")
    out = tmp_path / "labels.jsonl"
    assert run_cli("detect", "--in", str(transcript), "--config", str(cfg), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: line 2: bad value for {key}: a NUL character\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "replay", "detect", "validate", "synth"])
def test_an_ontology_flag_that_cannot_be_read_exits_1_naming_the_flag(tmp_path, capsys, command):
    transcript = tmp_path / "t.jsonl"
    _write_transcript(transcript, ["It went fine, as they say."])
    out = tmp_path / "out"
    argv = {
        "run": ["run", "--bank", str(GOLDEN), "--episodes", "1"],
        "replay": ["replay", "--in", str(transcript), "--ground-truth", "F10"],
        "detect": ["detect", "--in", str(transcript)],
        "validate": ["validate", "--bank", str(GOLDEN)],
        "synth": ["synth", "--patients", "2", "--snippets", "2"],
    }[command]
    assert run_cli(*argv, "--ontology", str(tmp_path), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: --ontology {tmp_path}: {os.strerror(errno.EISDIR)}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "replay", "detect"])
def test_a_config_path_that_cannot_be_read_exits_1_naming_the_key(tmp_path, monkeypatch, capsys, command):
    monkeypatch.delenv("ELICIT_API_KEY", raising=False)
    monkeypatch.chdir(tmp_path)  # holds no prompt template
    _write_transcript(tmp_path / "t.jsonl", ["It went fine, as they say."])
    argv = {
        "run": ["run", "--bank", str(GOLDEN), "--episodes", "1"],
        "replay": ["replay", "--in", "t.jsonl", "--ground-truth", "F10"],
        "detect": ["detect", "--in", "t.jsonl"],
    }[command]
    Path("ontology.cfg").write_text("ontology = .\n")
    assert run_cli(*argv, "--config", "ontology.cfg", "--out", "out") == 1
    assert capsys.readouterr().err == f"error: config key ontology = .: {os.strerror(errno.EISDIR)}\n"
    Path("prompts.cfg").write_text("detector.kind = llm\nselector.prompt_dir = .\n")
    assert run_cli(*argv, "--config", "prompts.cfg", "--out", "out") == 1
    template = os.path.join(".", "detect.txt")
    assert capsys.readouterr().err == (
        f"error: config key selector.prompt_dir = .: {template}: {os.strerror(errno.ENOENT)}\n"
    )
    assert not Path("out").exists()


@pytest.mark.parametrize("command", ["replay", "detect"])
def test_replay_and_detect_take_the_detector_kind_from_config(tmp_path, monkeypatch, capsys, command):
    monkeypatch.delenv("ELICIT_API_KEY", raising=False)
    transcript = tmp_path / "t.jsonl"
    _write_transcript(transcript, ["It went fine, as they say."])
    cfg = tmp_path / "run.cfg"
    cfg.write_text("detector.kind = llm\n")
    argv = [command, "--in", str(transcript), "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command == "replay":
        argv += ["--ground-truth", "F10"]
    assert run_cli(*argv) == 2
    assert "backend error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["replay", "detect"])
def test_replay_and_detect_exit_2_when_the_detector_reply_breaks_the_contract(tmp_path, monkeypatch, capsys, command):
    payload = lambda path, body: {"choices": [{"message": {"content": '{"F1": "yes"}'}}]}
    monkeypatch.setattr("elicit.cli.HttpTransport", lambda config: payload)
    transcript = tmp_path / "t.jsonl"
    _write_transcript(transcript, ["It went fine, as they say."])
    argv = [command, "--in", str(transcript), "--out", str(tmp_path / "out")]
    argv += ["--detector", "llm", "--ground-truth", "F10"] if command == "replay" else ["--backend", "llm"]
    assert run_cli(*argv) == 2
    assert "backend error: unusable reply after one retry: F1 must be a bool" in capsys.readouterr().err
    if command == "replay":
        log = json.loads((tmp_path / "out" / "replay-0000-manual.json").read_text("utf-8"))
        assert log["aborted"] and log["turns"] == []


def test_run_in_replay_mode_writes_every_log_when_one_episode_aborts(tmp_path, monkeypatch, capsys):
    # the golden bank's four exchanges: the last one is answered with unusable labels twice
    answers = iter([json.dumps({t.name: False for t in ALL_TRAITS})] * 3 + ['{"F1": "yes"}'] * 2)
    payload = lambda path, body: {"choices": [{"message": {"content": next(answers)}}]}
    monkeypatch.setattr("elicit.cli.HttpTransport", lambda config: payload)
    out = tmp_path / "logs"
    assert run_cli("run", "--bank", str(GOLDEN), "--mode", "replay", "--detector", "llm", "--out", str(out)) == 0
    logs = {p.name: json.loads(p.read_text("utf-8")) for p in out.glob("replay-*.json")}
    assert {name: log["aborted"] for name, log in logs.items()} == {
        "replay-0000-P001.json": False, "replay-0001-P002.json": True,
    }
    assert "(1 aborted, 0 skipped)" in capsys.readouterr().out


@pytest.mark.parametrize("line", [
    '{"question": "How was school?", "response": null}',
    '{"question": "How was school?", "response": "  "}',
    '{"question": 7, "response": "Fine."}',
    '{"response": "Fine."}',
    "5",
    '["How was school?", "Fine."]',
    "{not json",
])
@pytest.mark.parametrize("command", ["replay", "detect"])
def test_a_malformed_transcript_line_exits_1_naming_the_line(tmp_path, capsys, command, line):
    transcript = tmp_path / "t.jsonl"
    transcript.write_text(json.dumps({"question": "And then?", "response": "We left."}) + "\n\n" + line + "\n")
    argv = [command, "--in", str(transcript), "--out", str(tmp_path / "out")]
    if command == "replay":
        argv += ["--ground-truth", "F10"]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith("error: line 3: ")
    assert not (tmp_path / "out").exists()


def test_run_with_remote_encoder_and_an_empty_replay_log_is_a_backend_error(tmp_path, capsys):
    bank = tmp_path / "bank.jsonl"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("encoder.kind = remote\n")
    replay_log = tmp_path / "empty.jsonl"
    replay_log.write_text("")
    assert run_cli("synth", "--patients", "3", "--snippets", "4", "--seed", "9",
                   "--out", str(bank)) == 0
    code = run_cli("run", "--bank", str(bank), "--episodes", "1", "--seed", "9", "--config", str(cfg),
                   "--replay-log", str(replay_log), "--out", str(tmp_path / "logs"))
    assert code == 2
    assert "backend error" in capsys.readouterr().err


@pytest.mark.parametrize("line,problem", [
    ('{"response": "Fine."}', "expected a string fingerprint and a response"),
    ("{not json", "invalid JSON"),
])
def test_a_malformed_replay_log_line_exits_1_naming_the_file_and_line(tmp_path, capsys, line, problem):
    replay_log = tmp_path / "replay.jsonl"
    replay_log.write_text(line + "\n", encoding="utf-8")
    out = tmp_path / "logs"
    assert run_cli("run", "--bank", str(GOLDEN), "--episodes", "1", "--detector", "llm",
                   "--replay-log", str(replay_log), "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith(f"error: {replay_log}: line 1: {problem}")
    assert not out.exists()


@pytest.mark.parametrize("boundary,expected", [
    ("ingest", "error: line 1: invalid JSON (nested too deeply)"),
    ("detect --in", "error: line 1: invalid JSON (nested too deeply)"),
    ("run --ontology", "error: {path}: invalid JSON (nested too deeply"),
    ("run --replay-log", "error: {path}: line 1: invalid JSON (nested too deeply"),
    ("evaluate", "error: {path}: JSONDecodeError: nested too deeply"),
], ids=["ingest", "detect", "ontology", "replay-log", "evaluate"])
def test_json_nested_too_deeply_exits_1_with_the_boundary_error(tmp_path, capsys, boundary, expected):
    # json.loads raises RecursionError for it, which is no InputError
    path = tmp_path / "in" / "deep.json"
    path.parent.mkdir()
    path.write_text("[" * 5000 + "]" * 5000 + "\n", encoding="utf-8")
    run = ["run", "--bank", str(GOLDEN), "--episodes", "1", "--out", str(tmp_path / "out")]
    argv = {
        "ingest": ["ingest", "--in", str(path)],
        "detect --in": ["detect", "--in", str(path)],
        "run --ontology": [*run, "--ontology", str(path)],
        "run --replay-log": [*run, "--detector", "llm", "--replay-log", str(path)],
        "evaluate": ["evaluate", "--logs", str(path.parent)],
    }[boundary]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith(expected.format(path=path))


@pytest.mark.parametrize("reader,line,expected", [
    ("ingest", {"patient_id": "A", "session_id": "s", "scenario_id": 3, "doctor_curr": "q",
                "patient_reply": "r", "traits": []}, "error: line 3: invalid JSON"),
    ("detect --in", {"question": "q", "response": "r"}, "error: line 3: invalid JSON"),
    ("run --replay-log", {"fingerprint": "f", "response": "r"}, "error: {path}: line 3: invalid JSON"),
], ids=["ingest", "detect", "replay-log"])
def test_a_lone_cr_in_a_json_lines_file_is_whitespace_not_a_line_end(tmp_path, capsys, reader, line, expected):
    # line 1 holds a "\r" between tokens and line 2 starts with one; both parse, so line 3 is named
    path = tmp_path / "in.jsonl"
    text = json.dumps(line)
    path.write_bytes((text.replace(", ", ",\r", 1) + "\n\r" + text + "\n{not json\n").encode("utf-8"))
    run = ["run", "--bank", str(GOLDEN), "--episodes", "1", "--out", str(tmp_path / "out")]
    argv = {
        "ingest": ["ingest", "--in", str(path)],
        "detect --in": ["detect", "--in", str(path)],
        "run --replay-log": [*run, "--detector", "llm", "--replay-log", str(path)],
    }[reader]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err.startswith(expected.format(path=path))


def test_an_internal_check_that_fails_keeps_its_traceback(tmp_path, monkeypatch):
    # a broken invariant is a bug, not bad input: it must not exit 1 as a usage error
    def broken_update(state, labels):
        raise ValueError("detections must cover all ten traits; missing [F1]")

    monkeypatch.setattr("elicit.belief.update", broken_update)
    with pytest.raises(ValueError, match="detections must cover all ten traits"):
        run_cli("run", "--bank", str(GOLDEN), "--episodes", "1", "--out", str(tmp_path / "logs"))


def _pre_slim_shape(doc):
    """The log with a Beta snapshot of every trait in each turn, as logs were once written."""
    for turn in doc["turns"]:
        confirmed = turn.pop("confirmed")
        turn["belief_snapshot"] = {
            t.name: {"alpha": 1.0, "beta": 1.0, "mean": 0.5, "confirmed": t.name in confirmed} for t in ALL_TRAITS
        }


# a wrong key, a missing key, a value of the wrong JSON type, one out of range,
# turns numbered other than 1..n in order or more of them than max_turns, a
# confirmed trait that a later turn drops, or aborted without a reason or the reverse
_CORRUPTIONS = {
    "extra": lambda doc: doc["turns"][0].update(extra=1),
    "extra_top_level": lambda doc: doc.update(bogus=1),
    "missing": lambda doc: doc["turns"][0].pop("response"),
    "coverage_after": lambda doc: doc["turns"][0].update(coverage_after=0.5),
    "final_confirmed": lambda doc: doc.update(final_confirmed=doc["turns"][-1]["confirmed"]),
    "belief_snapshot": _pre_slim_shape,
    "turn": lambda doc: doc["turns"][0].update(turn="1"),
    "aborted": lambda doc: doc.update(aborted="no"),
    "aborted_missing": lambda doc: doc.pop("aborted"),
    "anchor_score_missing": lambda doc: doc["turns"][0].pop("anchor_score"),
    "confirmed_not_list": lambda doc: doc["turns"][0].update(confirmed="F1"),
    "confirmed_missing": lambda doc: doc["turns"][0].pop("confirmed"),
    "confirmed_trait_id": lambda doc: doc["turns"][0].update(confirmed=["F11"]),
    "confirmed_entry_not_string": lambda doc: doc["turns"][0].update(confirmed=[1]),
    "confirmed_duplicate": lambda doc: doc["turns"][0].update(confirmed=["F3", "F3"]),
    "max_turns_zero": lambda doc: doc.update(max_turns=0),
    "max_turns_negative": lambda doc: doc.update(max_turns=-5),
    "max_turns_huge": lambda doc: doc.update(max_turns=2**70),
    "max_turns_over_bound": lambda doc: doc.update(max_turns=MAX_TURNS + 1),
    "ground_truth_empty": lambda doc: doc.update(ground_truth=[]),
    "turns_renumbered": lambda doc: [t.update(turn=t["turn"] + 29) for t in doc["turns"]],
    "turns_reordered": lambda doc: doc["turns"].reverse(),
    "turn_zero": lambda doc: [t.update(turn=t["turn"] - 1) for t in doc["turns"]],
    "turns_over_max_turns": lambda doc: doc.update(max_turns=len(doc["turns"]) - 1),
    "confirmed_dropped": lambda doc: [doc["turns"][-2].update(confirmed=["F1"]), doc["turns"][-1].update(confirmed=[])],
    "aborted_without_reason": lambda doc: doc.update(aborted=True),
    "reason_without_aborted": lambda doc: doc.update(abort_reason="BackendError: connection reset"),
}


@pytest.mark.parametrize("command", ["evaluate", "report"])
@pytest.mark.parametrize("corrupt", list(_CORRUPTIONS))
def test_a_malformed_episode_log_exits_1_naming_the_file(tmp_path, capsys, command, corrupt):
    bank, logs = tmp_path / "bank.jsonl", tmp_path / "logs"
    run_cli("synth", "--patients", "3", "--snippets", "4", "--seed", "1", "--out", str(bank))
    run_cli("run", "--bank", str(bank), "--episodes", "2", "--turns", "3", "--out", str(logs))
    bad = logs / "tpa-0000-P001.json"
    doc = json.loads(bad.read_text("utf-8"))
    _CORRUPTIONS[corrupt](doc)
    bad.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    out = ["--out", str(tmp_path / "report.json")] if command == "evaluate" else ["--out-dir", str(tmp_path / "csv")]
    assert run_cli(command, "--logs", str(logs), *out) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


def test_replay_log_serves_a_recurring_request_in_recorded_order(tmp_path, monkeypatch, capsys):
    # the llm detector sends one request for two identical exchanges; the live
    # backend answers them differently, and a replay must serve both answers in order
    exchange = {"patient_id": "P001", "session_id": "S1", "scenario_id": 3,
                "doctor_curr": "How was your day?", "patient_reply": "Fine, the circle of life.",
                "traits": ["F10"]}
    bank = tmp_path / "bank.jsonl"
    bank.write_text((json.dumps(exchange) + "\n") * 2)
    answers = iter([json.dumps({t.name: t.name == "F10" for t in ALL_TRAITS}),
                    json.dumps({t.name: False for t in ALL_TRAITS})])

    payload = lambda path, body: {"choices": [{"message": {"content": next(answers)}}]}
    monkeypatch.setattr("elicit.cli.HttpTransport", lambda config: payload)
    record = tmp_path / "record.jsonl"
    run = ("run", "--bank", str(bank), "--mode", "replay", "--detector", "llm", "--out")
    assert run_cli(*run, str(tmp_path / "live"), "--record", str(record)) == 0
    assert run_cli(*run, str(tmp_path / "again"), "--replay-log", str(record)) == 0
    live = (tmp_path / "live" / "replay-0000-P001.json").read_bytes()
    assert (tmp_path / "again" / "replay-0000-P001.json").read_bytes() == live
    assert [t["detections"]["labels"]["F10"] for t in json.loads(live)["turns"]] == [True, False]

    record.write_text(record.read_text("utf-8").splitlines()[0] + "\n", encoding="utf-8")
    capsys.readouterr()
    assert run_cli(*run, str(tmp_path / "short"), "--replay-log", str(record)) == 2
    assert "backend error" in capsys.readouterr().err


def _completion(content):
    return {"choices": [{"message": {"role": "assistant", "content": content}}]}


def _embedding(index, vector):
    return {"data": [{"index": index, "embedding": vector}]}  # the remote encoder sends one text a request


# replies that break the backend contract and the error a run that meets them
# must exit 2 with, whether the reply is live or replayed
_MALFORMED_REPLIES = {
    "content_not_a_string": (_completion(5), "completion content is not a string: 5"),
    "nan": (_embedding(0, [float("nan"), 1.0]), "embedding 0 holds a non-finite value"),
    "string_entry": (_embedding(0, ["1.0", "x"]), "embedding 0 is not a non-empty list of numbers"),
    "empty_vector": (_embedding(0, []), "embedding 0 is not a non-empty list of numbers"),
    "bad_indexes": (_embedding(1, [1.0, 0.0]), "expected one embedding per input, indexes 0..0; got indexes [1]"),
}


@pytest.mark.parametrize("case", list(_MALFORMED_REPLIES))
def test_a_malformed_reply_exits_2_alike_when_live_and_when_replayed(tmp_path, monkeypatch, capsys, case):
    reply, problem = _MALFORMED_REPLIES[case]
    cfg = tmp_path / "run.cfg"
    if case == "content_not_a_string":
        cfg.write_text("detector.kind = llm\n")
        run = ("run", "--bank", str(GOLDEN), "--mode", "replay", "--config", str(cfg))
    else:
        cfg.write_text("encoder.kind = remote\n")
        run = ("run", "--bank", str(GOLDEN), "--episodes", "1", "--config", str(cfg))
    record = tmp_path / "record.jsonl"
    monkeypatch.setattr("elicit.cli.HttpTransport", lambda config: lambda path, body: reply)
    assert run_cli(*run, "--out", str(tmp_path / "live"), "--record", str(record)) == 2
    assert capsys.readouterr().err.startswith(f"backend error: {problem}")
    assert record.read_text("utf-8")  # the recorder keeps the wire reply that failed the check

    monkeypatch.setattr("elicit.cli.HttpTransport", None)  # a replay builds no live transport
    assert run_cli(*run, "--out", str(tmp_path / "again"), "--replay-log", str(record)) == 2
    assert capsys.readouterr().err.startswith(f"backend error: {problem}")


_TEMPLATE_HEADS = {name: load_prompt(name, None).partition("{")[0] for name in ("think", "plan", "ask", "realise", "detect")}


def _fake_llm_service():
    """A live transport answering each llm role's prompt and embedding texts; replies vary from call to call."""
    calls = itertools.count()

    def transport(path, body):
        n = next(calls)
        if path == "/v1/embeddings":
            return {"data": [{"index": i, "embedding": [len(t), sum(map(ord, t)) % 97 / 7, 1.0]}
                             for i, t in enumerate(body["input"])]}
        prompt = body["messages"][0]["content"]
        role = next(name for name, head in _TEMPLATE_HEADS.items() if prompt.startswith(head))
        content = {
            "think": json.dumps({"confirmed_analysis": f"call {n}", "elicitation_conditions": "a calm topic",
                                 "strategy_rationale": "vary the angle"}),
            "plan": json.dumps({"strategy": STRATEGY_ORDER[n % len(STRATEGY_ORDER)].value}),
            "ask": json.dumps({"question": f"What happened next, part {n}?"}),
            "realise": f"Reply {n}: it went all right, as they say.",
            "detect": json.dumps({t.name: (int(t) + n) % 3 == 0 for t in ALL_TRAITS}),
        }[role]
        return _completion(content)

    return transport


def _episode_logs(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.glob("*.json")) if p.name != "manifest.json"}


def _record_llm_stack(tmp_path, monkeypatch):
    """Record a tpa run of every llm kind and the remote encoder over a fake live service.

    Returns the run's flags but `--out`, the replay log and the episode logs; the live
    transport is then removed, so a later run can only replay.
    """
    cfg = tmp_path / "run.cfg"
    cfg.write_text("encoder.kind = remote\n")
    run = ("run", "--bank", str(GOLDEN), "--mode", "tpa", "--episodes", "2", "--turns", "4", "--seed", "1",
           "--selector", "llm", "--realiser", "llm", "--detector", "llm", "--config", str(cfg))
    record = tmp_path / "record.jsonl"
    monkeypatch.setattr("elicit.cli.HttpTransport", lambda config: _fake_llm_service())
    assert run_cli(*run, "--out", str(tmp_path / "live"), "--record", str(record)) == 0
    monkeypatch.setattr("elicit.cli.HttpTransport", None)
    live = _episode_logs(tmp_path / "live")
    assert len(live) == 2 and not any(json.loads(text)["aborted"] for text in live.values())
    return run, record, live


def test_a_recorded_all_llm_tpa_run_replays_to_identical_logs(tmp_path, monkeypatch):
    run, record, live = _record_llm_stack(tmp_path, monkeypatch)
    requests = [json.loads(line)["request"] for line in record.read_text("utf-8").splitlines()]
    assert {"input" in r for r in requests} == {True, False}  # embeddings and completions alike
    assert run_cli(*run, "--out", str(tmp_path / "again"), "--replay-log", str(record)) == 0
    assert _episode_logs(tmp_path / "again") == live


def test_run_refuses_a_record_path_that_already_exists(tmp_path, monkeypatch, capsys):
    # the recorder appends, so a second run's traffic would follow the first's and replay in its place
    def never(*args, **kwargs):
        raise AssertionError("input read before the outputs were checked")

    monkeypatch.setattr("elicit.cli.ingest", never)
    record, out = tmp_path / "record.jsonl", tmp_path / "logs"
    record.write_text("old line\n")
    assert run_cli("run", "--bank", str(GOLDEN), "--mode", "replay", "--detector", "llm",
                   "--out", str(out), "--record", str(record)) == 1
    assert capsys.readouterr().err == f"error: --record {record} already exists; give a new path\n"
    assert record.read_text() == "old line\n" and not out.exists()


@pytest.mark.parametrize("name", ["manifest.json", "traffic.json", "traffic.jsonl"])
def test_run_refuses_a_record_path_inside_out(tmp_path, monkeypatch, capsys, name):
    # the manifest would overwrite the recording, or evaluate would refuse a *.json file the manifest does not list
    def never(*args, **kwargs):
        raise AssertionError("input read before the outputs were checked")

    monkeypatch.setattr("elicit.cli.ingest", never)
    out = tmp_path / "logs"
    out.mkdir()
    record = out / name
    assert run_cli("run", "--bank", str(GOLDEN), "--mode", "replay", "--detector", "llm",
                   "--out", str(out), "--record", str(record)) == 1
    assert capsys.readouterr().err == f"error: --record {record} is inside --out {out}; write the replay log elsewhere\n"
    assert list(out.iterdir()) == []


def test_recording_a_replay_writes_a_log_that_replays_alike(tmp_path, monkeypatch):
    run, record, live = _record_llm_stack(tmp_path, monkeypatch)
    second = tmp_path / "second.jsonl"
    assert run_cli(*run, "--out", str(tmp_path / "again"), "--replay-log", str(record), "--record", str(second)) == 0
    assert _episode_logs(tmp_path / "again") == live
    assert second.read_bytes() == record.read_bytes()  # a serial run sends its requests in one order
    assert run_cli(*run, "--out", str(tmp_path / "third"), "--replay-log", str(second)) == 0
    assert _episode_logs(tmp_path / "third") == live


@pytest.mark.parametrize("command", ["run", "replay"])
def test_run_and_replay_refuse_an_out_that_holds_a_json_file_before_reading_input(tmp_path, capsys, command):
    # evaluate reads every *.json of a directory, so a second run into one would be pooled with the first
    out = tmp_path / "logs"
    assert run_cli("run", "--bank", str(GOLDEN), "--episodes", "2", "--seed", "1", "--out", str(out)) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    missing = str(tmp_path / "missing.jsonl")  # never read: the check comes first
    argv = {
        "run": ["run", "--bank", missing, "--mode", "random", "--episodes", "1"],
        "replay": ["replay", "--in", missing, "--ground-truth", "F10"],
    }[command]
    assert run_cli(*argv, "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error: --out {out} already holds manifest.json; give a new or empty directory\n"
    )
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    # a directory that holds no *.json file is still written into
    other = tmp_path / "other"
    other.mkdir()
    (other / "notes.txt").write_text("kept")
    transcript = tmp_path / "t.jsonl"
    _write_transcript(transcript, ["It went fine, as they say."])
    argv = {
        "run": ["run", "--bank", str(GOLDEN), "--episodes", "1"],
        "replay": ["replay", "--in", str(transcript), "--ground-truth", "F10"],
    }[command]
    assert run_cli(*argv, "--out", str(other)) == 0
    assert (other / "notes.txt").read_text() == "kept" and any(other.glob("*.json"))


@pytest.mark.parametrize("command", ["run", "replay", "report"])
@pytest.mark.parametrize("under", [False, True])
def test_an_out_dir_that_is_a_file_exits_1_naming_the_flag_before_reading_input(tmp_path, capsys, command, under):
    # before, each did its whole work, then failed on mkdir with an error that named no flag
    afile = tmp_path / "afile"
    afile.write_text("kept")
    out = afile / "logs" if under else afile
    missing = str(tmp_path / "missing")  # never read: the check comes first
    argv, flag = {
        "run": (["run", "--bank", missing, "--episodes", "1", "--out", str(out)], "--out"),
        "replay": (["replay", "--in", missing, "--ground-truth", "F10", "--out", str(out)], "--out"),
        "report": (["report", "--logs", missing, "--out-dir", str(out)], "--out-dir"),
    }[command]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"error: {flag} {out}: {afile} is not a directory\n"
    assert afile.read_text() == "kept" and sorted(tmp_path.iterdir()) == [afile]


@pytest.fixture
def run_dir(tmp_path):
    """The logs and manifest of one golden-bank tpa run."""
    logs = tmp_path / "logs"
    assert run_cli("run", "--bank", str(GOLDEN), "--episodes", "3", "--seed", "1", "--out", str(logs)) == 0
    return logs


@pytest.mark.parametrize("command", ["evaluate", "report"])
@pytest.mark.parametrize("fault", ["extra", "missing"])
def test_logs_that_are_not_the_manifests_episodes_exit_1_naming_the_first_such_file(
    run_dir, tmp_path, capsys, command, fault
):
    # a log directory with a manifest holds exactly that run's episodes
    names = sorted(p.name for p in run_dir.glob("*.json") if p.name != "manifest.json")
    if fault == "extra":
        (run_dir / "a-stray.json").write_bytes((run_dir / names[0]).read_bytes())
        (run_dir / "z-stray.json").write_bytes((run_dir / names[0]).read_bytes())
        named, wording = "a-stray.json", "is not listed in"
    else:
        for name in names[1:]:
            (run_dir / name).unlink()
        named, wording = names[1], "is missing; it is listed in"
    out = tmp_path / "out"
    argv = {
        "evaluate": ["evaluate", "--logs", str(run_dir), "--out", str(tmp_path / "report.json")],
        "report": ["report", "--logs", str(run_dir), "--out-dir", str(out)],
    }[command]
    capsys.readouterr()
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"error: {run_dir / named} {wording} {run_dir / 'manifest.json'}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["logs"]


@pytest.mark.parametrize("doc", ["not json", "[]", '{"episodes": "tpa-0000-P001"}', '{"episodes": [1]}'])
def test_a_manifest_without_a_list_of_episode_ids_exits_1_naming_it(run_dir, capsys, doc):
    (run_dir / "manifest.json").write_text(doc)
    capsys.readouterr()
    assert run_cli("evaluate", "--logs", str(run_dir)) == 1
    assert capsys.readouterr().err.startswith(f"error: {run_dir / 'manifest.json'}: ")


def test_a_run_directory_that_matches_its_manifest_evaluates_as_before(run_dir, tmp_path, capsys):
    assert run_cli("evaluate", "--logs", str(run_dir), "--out", str(tmp_path / "with.json")) == 0
    (run_dir / "manifest.json").unlink()
    assert run_cli("evaluate", "--logs", str(run_dir), "--out", str(tmp_path / "without.json")) == 0
    assert (tmp_path / "with.json").read_bytes() == (tmp_path / "without.json").read_bytes()


def test_run_and_validate_write_the_same_bytes_under_any_hash_seed(tmp_path):
    # a fresh interpreter per hash seed: str hashes, and so set iteration orders, differ between them
    src = str(Path(elicit.__file__).resolve().parents[1])
    written = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / f"hash-seed-{hash_seed}"
        for argv in (
            ["run", "--bank", str(GOLDEN), "--mode", "tpa", "--episodes", "3", "--seed", "1",
             "--out", str(out / "logs")],
            ["validate", "--bank", str(GOLDEN), "--episodes-per-patient", "2", "--seed", "1",
             "--out", str(out / "validate.json")],
        ):
            subprocess.run([sys.executable, "-m", "elicit.cli", *argv], env=env, capture_output=True, check=True,
                           timeout=120)
        written.append((_episode_logs(out / "logs"), (out / "validate.json").read_bytes()))
    assert len(written[0][0]) == 3
    assert hashlib.sha256(written[0][1]).hexdigest() == VALIDATE_GOLDEN_SHA256
    assert written[0] == written[1]


# run in a fresh interpreter: each `elicit` call is a process of its own, and a module this
# process has loaded for another test would hide a load
_HEAVY_MODULES_LOADED = """
import json, sys
before = set(sys.modules)
heavy = lambda: [m for m in json.loads(sys.argv[2]) if m in sys.modules and m not in before]
from elicit import cli
loaded = {"import": heavy()}
for argv in json.loads(sys.argv[1]):
    try:
        code = cli.main(argv)
    except SystemExit as e:  # -h
        code = e.code
    assert code == 0, (argv, code)
    loaded[argv[0]] = heavy()
print(json.dumps(loaded))
"""


def _heavy_modules_loaded(*commands: list[str], watched=("numpy", "urllib.request", "http.client", "ssl")):
    """The `watched` modules loaded by `import elicit.cli`, then by each command in turn, cumulatively."""
    src = str(Path(elicit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _HEAVY_MODULES_LOADED, json.dumps(commands), json.dumps(watched)],
                          env=env, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(done.stdout.splitlines()[-1])


def test_the_commands_that_only_read_load_neither_numpy_nor_the_http_stack(golden_logs, tmp_path):
    loaded = _heavy_modules_loaded(
        ["-h"],
        ["ingest", "--in", str(GOLDEN)],
        ["synth", "--patients", "3", "--snippets", "4", "--out", str(tmp_path / "bank.jsonl")],
        ["evaluate", "--logs", str(golden_logs), "--out", str(tmp_path / "r.json"), "--csv", str(tmp_path / "e.csv")],
        ["report", "--logs", str(golden_logs), "--out-dir", str(tmp_path / "report")],
    )
    assert loaded == {"import": [], "-h": [], "ingest": [], "synth": [], "evaluate": [], "report": []}


def test_detect_with_the_rule_detector_loads_no_numpy_and_no_simulation_stack(tmp_path):
    transcript = tmp_path / "t.jsonl"
    _write_transcript(transcript, ["It went fine, as they say."])
    loaded = _heavy_modules_loaded(
        ["detect", "--in", str(transcript), "--backend", "rule", "--out", str(tmp_path / "d.jsonl")],
        watched=("numpy", "elicit.runner", "elicit.retrieval", "urllib.request"),
    )
    assert loaded == {"import": [], "detect": []}


def test_a_run_of_deterministic_kinds_loads_numpy_but_not_the_http_stack(tmp_path):
    loaded = _heavy_modules_loaded(["run", "--bank", str(GOLDEN), "--episodes", "2", "--out", str(tmp_path / "logs")])
    assert loaded == {"import": [], "run": ["numpy"]}


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call on this platform")
def test_validate_writes_the_same_bytes_on_one_cpu_as_on_every_cpu(tmp_path):
    # 20 x 10 patients, 2 episodes of 20 turns: enough turns to fan the folds out on a multi-CPU host
    bank = tmp_path / "bank.jsonl"
    assert run_cli("synth", "--patients", "20", "--snippets", "10", "--seed", "1", "--out", str(bank)) == 0
    src = str(Path(elicit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def one_cpu():
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    written = []
    for name, preexec in (("one-cpu", one_cpu), ("every-cpu", None)):
        out = tmp_path / f"{name}.json"
        subprocess.run([sys.executable, "-m", "elicit.cli", "validate", "--bank", str(bank), "--out", str(out)],
                       env=env, capture_output=True, check=True, timeout=120, preexec_fn=preexec)
        written.append(out.read_bytes())
    assert written[0] == written[1]


@pytest.fixture(scope="module")
def golden_logs(tmp_path_factory):
    """The golden bank's tpa, random and replay logs, moved from their three runs into one directory."""
    root = tmp_path_factory.mktemp("golden")
    logs = root / "logs"
    logs.mkdir()
    for mode, episodes in (("tpa", "3"), ("random", "3"), ("replay", "0")):
        assert run_cli("run", "--bank", str(GOLDEN), "--mode", mode, "--episodes", episodes,
                       "--seed", "1", "--out", str(root / mode)) == 0
        for log in (root / mode).glob("*.json"):
            if log.name != "manifest.json":
                log.rename(logs / log.name)
    return logs


def test_a_bug_while_reading_logs_keeps_its_traceback(golden_logs, monkeypatch):
    # only input faults exit 1; a KeyError from the parser itself is a bug
    def broken(cls, d):
        raise KeyError("no such field")

    monkeypatch.setattr(EpisodeLog, "from_dict", classmethod(broken))
    with pytest.raises(KeyError, match="no such field"):
        run_cli("evaluate", "--logs", str(golden_logs))


@pytest.mark.parametrize("command", ["evaluate", "validate", "detect", "run", "report"])
def test_an_output_path_that_cannot_be_written_exits_1_naming_it(golden_logs, tmp_path, capsys, command):
    # a directory where a file is written, or a file where a directory is made
    directory, file = tmp_path / "a-dir", tmp_path / "a-file"
    directory.mkdir()
    file.write_text("")
    transcript = tmp_path / "t.jsonl"
    transcript.write_text(json.dumps({"question": "q", "response": "r"}))
    argv, target = {
        "evaluate": (["--logs", str(golden_logs), "--out", str(directory)], directory),
        "validate": (["--bank", str(GOLDEN), "--episodes-per-patient", "1", "--turns", "2",
                      "--out", str(directory)], directory),
        "detect": (["--in", str(transcript), "--out", str(directory)], directory),
        "run": (["--bank", str(GOLDEN), "--episodes", "1", "--out", str(file)], file),
        "report": (["--logs", str(golden_logs), "--out-dir", str(file)], file),
    }[command]
    assert run_cli(command, *argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(target) in err


def _with_one_aborted(logs: Path, out: Path) -> Path:
    """A copy of `logs` in which one tpa episode aborted after its third turn, before its coverage rose."""
    out.mkdir()
    for p in logs.glob("*.json"):
        (out / p.name).write_bytes(p.read_bytes())
    bad = out / "tpa-0002-P001.json"
    doc = json.loads(bad.read_text("utf-8"))
    doc["turns"] = doc["turns"][:3]
    doc.update(aborted=True, abort_reason="BackendError: connection reset")
    bad.write_text(json.dumps(doc), encoding="utf-8")
    return out


# sha256 of each file `evaluate` and `report` write over the golden bank's logs,
# recorded before `aggregate` read each log in one pass
_CURVES = "47070ced09d6b0a4ab063153b0e6d08ffcebbae88ba41c6cf50aaab14a997c2c"
_EPISODES = "46defcb662a636434e35aeb0ea6e5a0cecaf7d163ddaa57bd2678c09f73f579a"
REPORT_GOLDEN_SHA256 = {
    "evaluate": {
        "curves.csv": _CURVES,
        "report.csv": _EPISODES,
        "report.json": "1f56763cdff573099b0f5211083aa50b3a4444f200357a1b561affefbce75251",
    },
    "report": {
        "curves.csv": _CURVES,
        "report.csv": _EPISODES,
        "strategy_dist.csv": "f37ef056f341cab1c36db8f74e632a915b5c4f1b3c1953772ca35e4541686f62",
    },
    "evaluate --include-aborted": {
        "curves.csv": "4ff1ae5970895bc730e96e388746c4cbb362aa1fd3c02e5e51f0953572869b7f",
        "report.csv": "976aed73f7e09f41057118b6923586748b4fe68a5668b8881d49d92ed575fd15",
        "report.json": "9b73262f9dd35b488abebb2e426079824ae52ed83ca282c9bdf275d381491acd",
    },
}


@pytest.mark.parametrize("command", list(REPORT_GOLDEN_SHA256))
def test_evaluate_and_report_outputs_keep_their_bytes(golden_logs, tmp_path, command):
    out = tmp_path / "out"
    if command == "report":
        assert run_cli("report", "--logs", str(golden_logs), "--out-dir", str(out)) == 0
    else:
        logs = golden_logs
        flags = []
        if command.endswith("--include-aborted"):
            logs = _with_one_aborted(golden_logs, tmp_path / "logs")
            flags = ["--include-aborted"]
        out.mkdir()
        assert run_cli("evaluate", "--logs", str(logs), "--out", str(out / "report.json"),
                       "--csv", str(out / "report.csv"), *flags) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert digests == REPORT_GOLDEN_SHA256[command]


@pytest.mark.parametrize(
    "out,csv",
    [(None, "d/curves.csv"), ("d/report.json", "d/curves.csv"), ("d/curves.csv", "d/episodes.csv"),
     ("d/episodes.csv", "d/episodes.csv"), ("d/../d/curves.csv", "d/episodes.csv")],
)
def test_evaluate_refuses_two_outputs_that_are_one_file(golden_logs, tmp_path, capsys, out, csv):
    # --out, --csv and the curves.csv written beside --csv must be three files
    (tmp_path / "d").mkdir()
    flags = ["--csv", str(tmp_path / csv)] + (["--out", str(tmp_path / out)] if out else [])
    assert run_cli("evaluate", "--logs", str(golden_logs), *flags) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not any((tmp_path / "d").iterdir())



@pytest.mark.parametrize("out,csv,named", [
    ("r.json", "missing/ep.csv", "missing"), ("missing/r.json", "ep.csv", "missing"), ("missing/r.json", None, "missing"),
    ("r.json", "d", "d is a directory"), ("d", "ep.csv", "d is a directory"),
])
def test_evaluate_refuses_an_output_it_cannot_write_before_writing_any(golden_logs, tmp_path, capsys, out, csv, named):
    # it used to write --out, then fail on --csv and leave the report behind
    (tmp_path / "d").mkdir()
    flags = ["--out", str(tmp_path / out)] + (["--csv", str(tmp_path / csv)] if csv else [])
    assert run_cli("evaluate", "--logs", str(golden_logs), *flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / named) in err
    assert [p.name for p in tmp_path.iterdir()] == ["d"] and not any((tmp_path / "d").iterdir())


@pytest.mark.parametrize("spelling", ["logs/r.json", "./logs/../logs/r.json"])
def test_evaluate_refuses_an_out_inside_logs_and_writes_nothing(run_dir, tmp_path, capsys, monkeypatch, spelling):
    # once written there, the report broke every later evaluate or report of the run
    monkeypatch.chdir(tmp_path)
    assert run_cli("evaluate", "--logs", "logs/", "--out", spelling) == 1
    assert capsys.readouterr().err == (
        f"error: --out {spelling} is inside --logs logs/; write the report elsewhere\n"
    )
    assert not (run_dir / "r.json").exists()
    assert run_cli("evaluate", "--logs", "logs", "--out", "r.json") == 0


@pytest.mark.parametrize("name", ["report.csv", "curves.csv", "strategy_dist.csv"])
def test_report_refuses_an_out_dir_whose_csv_is_a_directory_before_writing_any(golden_logs, tmp_path, capsys, name):
    # report used to write report.csv, then fail on the directory with an error naming no flag
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert run_cli("report", "--logs", str(golden_logs), "--out-dir", str(out)) == 1
    assert capsys.readouterr().err == f"error: --out-dir {out}: {out / name} is a directory\n"
    assert sorted(out.iterdir()) == [out / name]


def _with_lone_surrogate_escape(path: Path, line: int, key: str) -> None:
    """Append U+D800 to `key` of one JSON line of `path`, written as the escape json.dumps gives it."""
    lines = path.read_text("utf-8").splitlines()
    doc = json.loads(lines[line])
    doc[key] += "\ud800"
    lines[line] = json.dumps(doc)
    assert "\\ud800" in lines[line]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_a_lone_surrogate_escape_in_a_bank_reply_exits_1_naming_the_line(tmp_path, capsys):
    # it used to pass ingest and fail the log writer with a UnicodeEncodeError traceback
    bank, logs = tmp_path / "bank.jsonl", tmp_path / "logs"
    assert run_cli("synth", "--patients", "3", "--snippets", "4", "--seed", "3", "--out", str(bank)) == 0
    _with_lone_surrogate_escape(bank, 1, "patient_reply")
    capsys.readouterr()
    assert run_cli("run", "--bank", str(bank), "--mode", "replay", "--out", str(logs)) == 1
    assert capsys.readouterr().err == "error: line 2: invalid JSON (a string holds a lone surrogate)\n"
    assert not logs.exists()


@pytest.mark.parametrize("key", ["patient_id", "episode_id"])
def test_a_lone_surrogate_escape_in_an_episode_log_exits_1_and_writes_nothing(golden_logs, tmp_path, capsys, key):
    logs, out = tmp_path / "logs", tmp_path / "out"
    logs.mkdir()
    out.mkdir()
    log = logs / "tpa-0000-P001.json"
    log.write_bytes((golden_logs / log.name).read_bytes())
    _with_lone_surrogate_escape(log, 0, key)
    assert run_cli("evaluate", "--logs", str(logs), "--out", str(out / "report.json"),
                   "--csv", str(out / "report.csv")) == 1
    assert run_cli("report", "--logs", str(logs), "--out-dir", str(out / "reported")) == 1
    assert capsys.readouterr().err.count(f"error: {log}: JSONDecodeError: a string holds a lone surrogate") == 2
    assert not any(out.iterdir())


_LONG_NUMBER = "1" * 5000  # over int's default 4,300-digit limit, so json.loads raises a bare ValueError


def test_a_number_too_long_to_convert_in_a_bank_line_exits_1_naming_the_line(tmp_path, capsys):
    # it used to end in a ValueError traceback
    bank = tmp_path / "bank.jsonl"
    first = GOLDEN.read_text("utf-8").splitlines()[0]
    bank.write_text(first[:-1] + f', "x": {_LONG_NUMBER}}}\n', encoding="utf-8")
    assert run_cli("ingest", "--in", str(bank)) == 1
    assert capsys.readouterr().err == "error: line 1: invalid JSON (a number has too many digits to convert)\n"


def test_a_number_too_long_to_convert_in_an_episode_log_exits_1_and_writes_nothing(golden_logs, tmp_path, capsys):
    logs, out = tmp_path / "logs", tmp_path / "out"
    logs.mkdir()
    out.mkdir()
    log = logs / "tpa-0000-P001.json"
    text = (golden_logs / log.name).read_text("utf-8").rstrip()
    log.write_text(text[:-1] + f', "x": {_LONG_NUMBER}}}\n', encoding="utf-8")
    assert run_cli("evaluate", "--logs", str(logs), "--out", str(out / "report.json"),
                   "--csv", str(out / "report.csv")) == 1
    assert capsys.readouterr().err.startswith(f"error: {log}: JSONDecodeError: a number has too many digits to convert")
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["validate", "detect"])
def test_validate_and_detect_refuse_an_out_they_cannot_write_before_reading_input(tmp_path, capsys, monkeypatch,
                                                                                   command):
    # validate used to run the whole leave-one-out pass, then fail on --out with an OSError naming no flag
    def never(*args):
        raise AssertionError("input read before --out was checked")

    monkeypatch.setattr("elicit.fidelity.loo_validate", never)  # validate imports it from fidelity when it runs
    monkeypatch.setattr("elicit.cli.ingest", never)
    monkeypatch.setattr("elicit.cli._read_transcript", never)
    transcript = tmp_path / "t.jsonl"
    transcript.write_text(json.dumps({"question": "q", "response": "r"}) + "\n")
    source = ["--bank", str(GOLDEN)] if command == "validate" else ["--in", str(transcript)]
    out = tmp_path / "missing" / "v.json"
    assert run_cli(command, *source, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: --out {out}: no directory {out.parent}\n"
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command", ["synth", "run"])
@pytest.mark.parametrize("target", ["missing", "directory"])
def test_synth_out_and_run_record_are_checked_before_the_bank_is_read(tmp_path, capsys, monkeypatch, command, target):
    # synth used to build the whole bank first, and run with deterministic kinds never opened --record
    def never(*args, **kwargs):
        raise AssertionError("bank read before the output was checked")

    monkeypatch.setattr("elicit.cli.synthesize_bank", never)
    monkeypatch.setattr("elicit.cli.ingest", never)
    directory = tmp_path / "a-dir"
    directory.mkdir()
    path = tmp_path / "missing" / "x.jsonl" if target == "missing" else directory
    argv, flag = {
        "synth": (["synth", "--patients", "3", "--snippets", "4", "--out", str(path)], "--out"),
        "run": (["run", "--bank", str(GOLDEN), "--episodes", "1", "--out", str(tmp_path / "logs"),
                 "--record", str(path)], "--record"),
    }[command]
    assert run_cli(*argv) == 1
    problem = f": no directory {path.parent}" if target == "missing" else " is a directory"
    assert capsys.readouterr().err == f"error: {flag} {path}{problem}\n"
    assert sorted(tmp_path.iterdir()) == [directory] and not any(directory.iterdir())


@pytest.mark.parametrize("command,output,source", [
    ("detect", "--out", "--in"),
    ("validate", "--out", "--bank"),
    ("synth", "--out", "--ontology"),
    ("run", "--record", "--bank"),
    ("run", "--record", "--config"),
    ("run", "--record", "--ontology"),
    ("run", "--record", "--replay-log"),
])
def test_an_output_that_is_one_of_the_commands_inputs_exits_1_naming_both_before_reading_input(
    tmp_path, capsys, monkeypatch, command, output, source
):
    # detect --in t.jsonl --out t.jsonl used to exit 0 with the transcript replaced by its detections
    def never(*args, **kwargs):
        raise AssertionError("input read before the outputs were checked")

    for name in ("ingest", "_read_transcript", "load_settings", "load_ontology"):
        monkeypatch.setattr(f"elicit.cli.{name}", never)
    shared = tmp_path / "shared.jsonl"
    shared.write_bytes(GOLDEN.read_bytes())
    (tmp_path / "sub").mkdir()
    flags = {
        "detect": {"--in": GOLDEN, "--out": tmp_path / "d.jsonl"},
        "validate": {"--bank": GOLDEN, "--out": tmp_path / "v.json"},
        "synth": {"--patients": 3, "--snippets": 4, "--out": tmp_path / "bank.jsonl"},
        "run": {"--bank": GOLDEN, "--episodes": 1, "--out": tmp_path / "logs", "--record": tmp_path / "r.jsonl"},
    }[command]
    flags[source] = tmp_path / "sub" / ".." / shared.name  # another spelling of the same file
    flags[output] = shared
    assert run_cli(command, *(str(x) for flag in flags.items() for x in flag)) == 1
    assert capsys.readouterr().err == f"error: {source} and {output} are the same file {shared}\n"
    assert shared.read_bytes() == GOLDEN.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["shared.jsonl", "sub"]


def test_an_escaped_surrogate_pair_still_reads(golden_logs, tmp_path):
    logs, out = tmp_path / "logs", tmp_path / "out"
    logs.mkdir()
    log = logs / "tpa-0000-P001.json"
    doc = json.loads((golden_logs / log.name).read_text("utf-8"))
    doc["patient_id"] = "P\U0001F600"
    log.write_text(json.dumps(doc), encoding="utf-8")
    assert "\\ud83d\\ude00" in log.read_text("utf-8")
    assert run_cli("report", "--logs", str(logs), "--out-dir", str(out)) == 0
    assert ",P\U0001F600," in (out / "report.csv").read_text("utf-8")


# sha256 of the `M-*.json` logs, concatenated in name order, that `run --mode M --episodes 6
# --seed 29 --turns 20` writes on `synth --patients 200 --snippets 10 --seed 29`: 60 doctor texts
# shared by ~33 rows each, recorded before anchors were picked per distinct text
SHARED_BANK_SHA256 = "7ad46e7d23b7670e79ce4f8b545a7f1f20f225494f99facdd4f99bb192f2cbff"
SHARED_BANK_LOGS_SHA256 = {
    "tpa": "24e47bd8682a8db52c417251d223257dc98d128c8142ce5f9ead78deffe090d6",
    "random": "9641712c08a891d277beb5e6a07cf4cdc73c57705e23f9e43ec412ee5ebcd32e",
}


@pytest.fixture(scope="module")
def shared_bank(tmp_path_factory):
    bank = tmp_path_factory.mktemp("shared") / "bank.jsonl"
    assert run_cli("synth", "--patients", "200", "--snippets", "10", "--seed", "29", "--out", str(bank)) == 0
    assert hashlib.sha256(bank.read_bytes()).hexdigest() == SHARED_BANK_SHA256
    return bank


@pytest.mark.parametrize("mode", list(SHARED_BANK_LOGS_SHA256))
def test_a_bank_of_heavily_shared_texts_keeps_its_log_bytes(shared_bank, tmp_path, mode):
    out = tmp_path / mode
    assert run_cli("run", "--bank", str(shared_bank), "--mode", mode, "--episodes", "6", "--seed", "29",
                   "--turns", "20", "--out", str(out)) == 0
    logs = sorted(out.glob(f"{mode}-*.json"))
    assert len(logs) == 6
    assert hashlib.sha256(b"".join(p.read_bytes() for p in logs)).hexdigest() == SHARED_BANK_LOGS_SHA256[mode]


_JSON_VALUE = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 2**70), st.floats(), st.text(max_size=4),
    st.lists(st.sampled_from(["F1", "F2", "F11", 1]), max_size=3), st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@st.composite
def _mutated_log(draw, doc: dict) -> bytes:
    """The bytes of `doc`, a written episode log, after up to three random mutations."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(0, 3))):
        turns = doc["turns"] if isinstance(doc.get("turns"), list) else []
        turn = draw(st.sampled_from(turns)) if turns else None
        target = doc if turn is None or not isinstance(turn, dict) or draw(st.booleans()) else turn
        kind = draw(st.sampled_from(["drop", "add", "retype", "renumber", "unlatch"]))
        if kind == "drop" and target:
            del target[draw(st.sampled_from(sorted(target)))]
        elif kind == "add":
            target[draw(st.text(min_size=1, max_size=8))] = draw(_JSON_VALUE)
        elif kind == "retype" and target:
            target[draw(st.sampled_from(sorted(target)))] = draw(_JSON_VALUE)
        elif kind == "renumber" and isinstance(turn, dict):
            turn["turn"] = draw(st.integers(-1, len(turns) + 2))
        elif kind == "unlatch" and isinstance(turn, dict) and isinstance(turn.get("confirmed"), list) and turn["confirmed"]:
            turn["confirmed"].pop(draw(st.integers(0, len(turn["confirmed"]) - 1)))
    data = json.dumps(doc, ensure_ascii=False).encode("utf-8")
    damage = draw(st.sampled_from(["none", "truncate", "not_utf8"]))
    if damage == "truncate":
        data = data[: draw(st.integers(0, len(data) - 1))]
    elif damage == "not_utf8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@pytest.fixture(scope="module")
def golden_tpa_log(golden_logs):
    return json.loads((golden_logs / "tpa-0000-P001.json").read_text("utf-8"))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), include_aborted=st.booleans())
def test_a_mutated_episode_log_exits_0_or_1_and_writes_nothing_on_1(golden_tpa_log, data, include_aborted):
    blob = data.draw(_mutated_log(golden_tpa_log))
    flags = ["--include-aborted"] if include_aborted else []
    with tempfile.TemporaryDirectory() as tmp:
        logs, evaluated, reported = Path(tmp) / "logs", Path(tmp) / "evaluated", Path(tmp) / "reported"
        logs.mkdir()
        evaluated.mkdir()
        (logs / "tpa-0000-P001.json").write_bytes(blob)
        code = run_cli("evaluate", "--logs", str(logs), "--out", str(evaluated / "report.json"),
                       "--csv", str(evaluated / "report.csv"), *flags)
        assert code in (0, 1)
        assert (code == 1) == (not any(evaluated.iterdir()))
        assert run_cli("report", "--logs", str(logs), "--out-dir", str(reported), *flags) == code
        assert reported.exists() == (code == 0)


_CONFIG_VALUES = ["llm", "rule", "remote", "bert", "0", "0.5", "2", "-3", "nan", "inf", "1e400", "abc", "",
                  "http://localhost:9", "http://exa mple.com", "http://example.com:abc", "localhost:8000", "no/such/dir"]


@st.composite
def _config_text(draw) -> str:
    """Config lines of set keys, good and bad values, comments, blank lines, unknown keys and junk, with odd breaks."""
    from elicit.config import KEYS

    key = st.sampled_from([*KEYS, "backend.max_concurrency", "no.such.key"])
    setting = st.builds("{} {} {}".format, key, st.sampled_from(["=", " = ", "=="]), st.sampled_from(_CONFIG_VALUES))
    other = st.sampled_from(["", "   ", "# tau = 2", "tau = 0.5 # a comment", "junk", "= 3", "tau ="])
    lines = []
    for line in draw(st.lists(setting | other, max_size=6)):
        at = draw(st.integers(0, len(line)))
        lines.append(line[:at] + draw(st.sampled_from(["", "\r", "\x0c", "\u2028", "\x00"])) + line[at:])
    return "\n".join(lines)


@settings(max_examples=60, deadline=None)
@given(_config_text())
def test_any_config_file_exits_0_1_or_2_and_writes_no_output_on_1(config_text):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.delenv("ELICIT_API_KEY", raising=False)  # so an llm detector fails before it opens a connection
        transcript, cfg, out = Path(tmp) / "t.jsonl", Path(tmp) / "run.cfg", Path(tmp) / "labels.jsonl"
        _write_transcript(transcript, ["It went fine, as they say."])
        cfg.write_text(config_text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli("detect", "--in", str(transcript), "--config", str(cfg), "--out", str(out))
        prefix = {0: "", 1: "error: ", 2: "backend error: "}[code]
        assert err.getvalue().startswith(prefix), err.getvalue()
        assert out.exists() == (code != 1)


_ONTOLOGY_STRINGS = ["", " ", "F3", "F11", "f3", "F03", "open_ended", "word for word", "word", "WORD FOR WORD",
                     "word for word again", " ready", "ready ", "-", "a\rb", "\r", "\ud800", "x\udfffy", "é"]
_ONTOLOGY_VALUES = [None, 0, 3, 16, -1, 2**70, 1.5, True, [], {}, ["F1"], [""], *_ONTOLOGY_STRINGS]


@st.composite
def _mutated_ontology(draw) -> bytes:
    """The embedded ontology with keys dropped or retyped, entries duplicated or renumbered,
    odd markers added and odd strings put in, written as JSON (a lone surrogate as its escape)."""
    from importlib import resources

    doc = json.loads(resources.files("elicit").joinpath("data/ontology.json").read_text("utf-8"))
    for _ in range(draw(st.integers(1, 4))):
        section = doc.get(draw(st.sampled_from(["traits", "strategies", "scenarios"])))
        entries = section if isinstance(section, list) else []
        entry = draw(st.sampled_from([doc, *entries]))  # the document itself, or one of its entries
        if not entry:
            continue
        key = draw(st.sampled_from(sorted(entry)))
        kind = draw(st.sampled_from(["drop", "retype", "duplicate", "marker", "junk"]))
        if kind == "drop":
            del entry[key]
        elif kind == "retype":
            entry[key] = draw(st.sampled_from(_ONTOLOGY_VALUES))
        elif kind == "duplicate" and entries:
            entries.append(copy.deepcopy(draw(st.sampled_from(entries))))
        elif kind == "marker" and isinstance(entry.get("markers"), list):
            entry["markers"].append(draw(st.sampled_from(_ONTOLOGY_STRINGS)))
        elif kind == "junk" and isinstance(entry[key], str):
            at = draw(st.integers(0, len(entry[key])))
            entry[key] = entry[key][:at] + draw(st.sampled_from(["\r", "\ud800", "\x00", "}", "junk"])) + entry[key][at:]
    return json.dumps(doc).encode("utf-8")


@settings(max_examples=60, deadline=None)
@given(_mutated_ontology())
def test_any_ontology_file_exits_0_1_or_2_and_writes_no_output_on_1(ontology):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.delenv("ELICIT_API_KEY", raising=False)
        transcript, ont, out = Path(tmp) / "t.jsonl", Path(tmp) / "ontology.json", Path(tmp) / "labels.jsonl"
        _write_transcript(transcript, ["It went fine, word for word, ready to roll."])
        ont.write_bytes(ontology)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli("detect", "--in", str(transcript), "--ontology", str(ont), "--out", str(out))
        prefix = {0: "", 1: "error: ", 2: "backend error: "}[code]
        assert err.getvalue().startswith(prefix), err.getvalue()
        assert out.exists() == (code != 1)


def test_cli_import_loads_no_scipy():
    # a fresh interpreter: this test process has scipy loaded by other tests
    src = str(Path(elicit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, elicit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout.strip() == "[]"
