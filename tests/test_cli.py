import hashlib
import json
import socket
from pathlib import Path

import pytest

from elicit.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_bank.jsonl"


def run_cli(*argv):
    return main(list(argv))


def test_unknown_subcommand(capsys):
    assert run_cli("frobnicate") == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_no_subcommand(capsys):
    assert run_cli() == 1


def test_ingest_golden(capsys):
    assert run_cli("ingest", "--in", str(GOLDEN), "--validate") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["snippets"] == 4


def test_ingest_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"patient_id": "A"}\n')
    assert run_cli("ingest", "--in", str(bad)) == 1
    assert "line 1" in capsys.readouterr().err


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
    assert log["turns"][-1]["coverage_after"] == 1.0


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
        "emitter.affinity_weight = 0.5\n"
    )
    settings = load_settings(cfg)
    assert settings.episode.emission.M == 6.5
    assert settings.episode.emission.strategy_gain == 2.0
    assert settings.episode.emission.affinity_weight == 0.5


def test_config_rejects_unknown_key(tmp_path):
    from elicit.config import ConfigError, load_settings

    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense.key = 1\n")
    with pytest.raises(ConfigError):
        load_settings(cfg)
    # a removed key fails the same way: a weight of 0 is how the affinity hook is turned off
    cfg.write_text("emitter.affinity_enabled = true\n")
    with pytest.raises(ConfigError, match="unknown config key"):
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
    ("emitter.affinity_weight", "0.75", 0.75, lambda seen: seen["cfg"].emission.affinity_weight),
    ("backend.endpoint", "http://localhost:9", "http://localhost:9", lambda seen: seen["client"].config.endpoint),
    ("backend.model", "gen-model", "gen-model", lambda seen: seen["client"].config.model),
    ("backend.embed_model", "embed-model", "embed-model", lambda seen: seen["client"].config.embed_model),
    ("backend.timeout_s", "12.5", 12.5, lambda seen: seen["client"].config.timeout_s),
    ("backend.max_concurrency", "7", 7, lambda seen: seen["client"].config.max_concurrency),
    ("tau", "0.85", 0.85, lambda seen: seen["cfg"].tau),
    ("ontology", "custom_ontology.json", "custom_ontology.json", lambda seen: seen["ontology"].version),
]
# the custom ontology's version is its file name, so the ontology row can read the loaded one back
CUSTOM_ONTOLOGY_VERSION = "custom_ontology.json"


def _run_capturing(monkeypatch, work_dir, config_text, *flags):
    """`elicit run` up to the episodes: returns what the components and batch receive, and the manifest."""
    from importlib import resources

    import elicit.cli as cli
    from elicit.runner import BatchResult

    monkeypatch.chdir(work_dir)
    ontology = json.loads(resources.files("elicit").joinpath("data/ontology.json").read_text("utf-8"))
    ontology["version"] = CUSTOM_ONTOLOGY_VERSION
    (work_dir / "custom_ontology.json").write_text(json.dumps(ontology))
    (work_dir / "run.cfg").write_text(config_text)
    seen = {}

    def capture_components(cfg, bank, ontology, client=None):
        seen.update(ontology=ontology, client=client)

    def capture_batch(cfg, bank, mode, n_episodes, parallel=1, components=None):
        seen["cfg"] = cfg
        return BatchResult(logs=(), skipped=())

    monkeypatch.setattr(cli, "build_components", capture_components)
    monkeypatch.setattr(cli, "run_batch", capture_batch)
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

    assert len(SETTINGS_TABLE) == 18
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
    assert seen["client"] is None
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
    assert log["final_confirmed"] == []
    assert log["turns"][-1]["coverage_after"] == 0.0


@pytest.mark.parametrize("line", ["tau = nan", "tau = inf", "tau = 1.5", "tau = -0.1",
                                  "emitter.M = nan", "emitter.strategy_gain = nan",
                                  "emitter.affinity_weight = nan"])
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


# a wrong key, a missing key, or a value of the wrong JSON type
_CORRUPTIONS = {
    "extra": lambda doc: doc["turns"][0].update(extra=1),
    "missing": lambda doc: doc["turns"][0].pop("response"),
    "coverage_after": lambda doc: doc["turns"][0].update(coverage_after="high"),
    "belief_snapshot": lambda doc: doc["turns"][0].update(belief_snapshot=[]),
    "turn": lambda doc: doc["turns"][0].update(turn="1"),
    "aborted": lambda doc: doc.update(aborted="no"),
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
    from elicit.backends import HttpBackend
    from elicit.ontology import ALL_TRAITS

    exchange = {"patient_id": "P001", "session_id": "S1", "scenario_id": 3,
                "doctor_curr": "How was your day?", "patient_reply": "Fine, the circle of life.",
                "traits": ["F10"]}
    bank = tmp_path / "bank.jsonl"
    bank.write_text((json.dumps(exchange) + "\n") * 2)
    answers = iter([json.dumps({t.name: t.name == "F10" for t in ALL_TRAITS}),
                    json.dumps({t.name: False for t in ALL_TRAITS})])

    def live_backend(config):
        payload = lambda path, body: {"choices": [{"message": {"content": next(answers)}}]}
        return HttpBackend(config, transport=payload, api_key="k")

    monkeypatch.setattr("elicit.cli.HttpBackend", live_backend)
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
