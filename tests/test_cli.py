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
        "emitter.affinity_enabled = true\n"
    )
    settings = load_settings(cfg)
    assert settings.emitter_M == 6.5
    assert settings.emitter_strategy_gain == 2.0
    assert settings.emitter_affinity_enabled is True


def test_config_rejects_unknown_key(tmp_path):
    from elicit.config import ConfigError, load_settings

    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense.key = 1\n")
    with pytest.raises(ConfigError):
        load_settings(cfg)


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
