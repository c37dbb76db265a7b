import hashlib
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from elicit import belief
from elicit.bank import SynthSpec, ingest, synthesize_bank
from elicit.metrics import aggregate
from elicit.ontology import ALL_TRAITS, TRAIT_NAMES
from elicit.patient import EmissionParams
from elicit.episode_log import BatchResult, EpisodeLog, LogFormatError, read_logs, write_logs
from elicit.runner import EpisodeConfig, build_components, run_batch

GOLDEN = Path(__file__).parent / "data" / "golden_bank.jsonl"

# sha256 of each log file run_batch writes on the golden bank with the CLI's
# defaults (seed 0, 20 turns), keyed by mode and any emitter settings, in the
# shape written while every turn logged a full Beta snapshot of every trait
# (`belief_snapshot`), with each turn's `coverage_after` and the log's
# `final_confirmed`, as `json.dumps(..., sort_keys=True, ensure_ascii=False,
# indent=1)` writes it. The rows with emitter hooks, which run one episode per
# golden patient, were recorded before the runner and leave-one-out fidelity
# shared one patient turn
PRE_SLIM_LOG_SHA256 = {
    "tpa": {"tpa-0000-P001.json": "07d1f2973251c58c6f3f521592c309b33cb331008cb7462e3a808426a0ecf7b2"},
    "random": {"random-0000-P001.json": "7b72efed159355fa9d2ce852beb9a2639556856edb953d69806fb4241ad8515d"},
    "replay": {"replay-0000-P001.json": "e3389fbfc1fe1fc71f42ff957633da3b8471034d67cca043c3d3c48886c1b836"},
    "tpa strategy_gain=1.5": {
        "tpa-0000-P001.json": "cf5bf47bdb297c092bf04f622b003215405049ccb38e058942007c9beb72c785",
        "tpa-0001-P002.json": "e98b3f6a92051dbae5752e3d0f987550c278b4344c6e3c67c5b7ad1b0183b909",
    },
    "random strategy_gain=1.5": {
        "random-0000-P001.json": "7b72efed159355fa9d2ce852beb9a2639556856edb953d69806fb4241ad8515d",
        "random-0001-P002.json": "987edc8006e63cf8951e7087dbbe842a5cd72bddb6d0faa901150a3c88a68946",
    },
}

# sha256 of the same files as now written: one line of compact JSON, in which
# each turn logs only its confirmed traits;
# `test_golden_bank_logs_fold_back_to_their_pre_slim_bytes` ties them to the rows above
GOLDEN_LOG_SHA256 = {
    "tpa": {"tpa-0000-P001.json": "d79fa20f96aff0b334cb14f8ce8ea79f27b7bd8b8cac951ea0a423ff42c0dde9"},
    "random": {"random-0000-P001.json": "f757d832cb5e942e66002b67cc80ad22b8af53b2863f93193dfb4d7ad3d9fc05"},
    "replay": {"replay-0000-P001.json": "02924e871a830f8e5928255c8255246971055008f8ad6b0f0e90f5c8ff95f43c"},
    "tpa strategy_gain=1.5": {
        "tpa-0000-P001.json": "004b4b05bf2cb39ae1f43f19f36c4fe5db3808b9ca038fefe4843b537bf613be",
        "tpa-0001-P002.json": "5ce3ec7d51757cfa1a019f614571a8b7395a9c5bdfafaa8fe830a3c4a4359ebe",
    },
    "random strategy_gain=1.5": {
        "random-0000-P001.json": "f757d832cb5e942e66002b67cc80ad22b8af53b2863f93193dfb4d7ad3d9fc05",
        "random-0001-P002.json": "8c9aecdc6165bdfb56d9a5f24367bfa8c6c22b54a95282387082bc787f2a6739",
    },
}


def _golden_bank_logs(case: str, out: Path) -> list[Path]:
    mode, *settings = case.split()
    emission = EmissionParams(**{k: float(v) for k, v in (s.split("=") for s in settings)})
    cfg, bank = EpisodeConfig(emission=emission), ingest(GOLDEN)
    result = run_batch(cfg, bank, mode, len(PRE_SLIM_LOG_SHA256[case]), components=build_components(cfg, bank))
    return write_logs(result, out)


def pre_slim(doc: dict) -> str:
    """`doc`, a parsed episode log, as the text of the shape that logged a Beta snapshot each turn.

    Folds `belief.update` over each turn's detection labels from a fresh state
    at the log's tau, checks the turn's confirmed list against the fold, and
    writes the folded snapshot in its place, with the turn's coverage of the
    ground truth. The log's `final_confirmed` is the last turn's list.
    """
    state = belief.BeliefState(tau=doc["tau"])
    gt = set(doc["ground_truth"])
    for turn in doc["turns"]:
        state = belief.update(state, tuple(turn["detections"]["labels"][n] for n in TRAIT_NAMES))
        confirmed = turn.pop("confirmed")
        assert confirmed == [t.name for t in sorted(state.confirmed)]
        turn["coverage_after"] = len(gt.intersection(confirmed)) / len(gt)
        turn["belief_snapshot"] = {}
        for t, p in zip(ALL_TRAITS, state.positives):
            alpha, beta = 1.0 + p, 1.0 + state.turns - p
            turn["belief_snapshot"][t.name] = {
                "alpha": alpha, "beta": beta, "mean": alpha / (alpha + beta), "confirmed": t in state.confirmed
            }
    doc["final_confirmed"] = [t.name for t in sorted(state.confirmed)]
    return json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=1)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", list(GOLDEN_LOG_SHA256))
def test_golden_bank_logs_keep_their_bytes(case, tmp_path):
    paths = _golden_bank_logs(case, tmp_path)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths} == GOLDEN_LOG_SHA256[case]


@pytest.mark.parametrize("case", list(PRE_SLIM_LOG_SHA256))
def test_golden_bank_logs_fold_back_to_their_pre_slim_bytes(case, tmp_path):
    paths = _golden_bank_logs(case, tmp_path)
    folded = {p.name: _sha256(pre_slim(json.loads(p.read_text("utf-8"))) + "\n") for p in paths}
    assert folded == PRE_SLIM_LOG_SHA256[case]


# sha256 of the log an all-llm episode writes on the golden bank when a scripted
# transport serves every reply, in its pre-slim shape and now, and of the
# sha256 of each sorted-key body it posted, one a line; the pre-slim digest was
# recorded before the selector and detector shared one reply parser, and the
# bodies' digest while the roles still built request objects
PRE_SLIM_LLM_LOG_SHA256 = "844bc9670e3a841b9eb1a1ed5869b7678f29de5da29205a49e23c205ec548fc7"
LLM_LOG_SHA256 = "40bcfaf65be9034cd3b05953c181054ea82d6806bcc3b42734bec6750d72fe26"
LLM_FINGERPRINTS_SHA256 = "6031557561b1a9e204d591c0c9de0e9e742af657b7a0ab3c74fb07dde22c72f6"


def test_all_llm_episode_keeps_its_log_bytes_and_requests():
    from elicit.backends import BackendConfig, HttpBackend
    from elicit.bank import base_rates
    from elicit.ontology import ALL_TRAITS, STRATEGY_ORDER
    from elicit.runner import run_episode

    turns = 6
    script = []
    for i in range(turns):
        script += [
            json.dumps({
                "confirmed_analysis": f"turn {i}: nothing settled",
                "elicitation_conditions": f"a calm topic, angle {i}",
                "strategy_rationale": "vary the angle",
            }),
            f'Sure. {{"strategy": "{STRATEGY_ORDER[i % len(STRATEGY_ORDER)].value}"}}',
            json.dumps({"question": f"What happened next, part {i}?"}),
            f"Reply {i}: it went all right, as they say.",
            json.dumps({t.name: t.name == "F2" or (int(t) + i) % 3 == 0 for t in ALL_TRAITS}),
        ]
    replies, bodies = iter(script), []

    def transport(path, body):
        bodies.append(json.dumps(body, sort_keys=True, ensure_ascii=False))
        return {"choices": [{"message": {"role": "assistant", "content": next(replies)}}]}

    client = HttpBackend(BackendConfig(), transport=transport)
    cfg = EpisodeConfig(max_turns=turns, seed=3, selector_kind="llm", realiser_kind="llm", detector_kind="llm")
    bank = ingest(GOLDEN)
    comps = build_components(cfg, bank, client=client)
    log = run_episode(cfg, bank, base_rates(bank, "P001"), comps, "llm-0000-P001")
    gt = {t.name for t in log.ground_truth}
    assert not log.aborted and [len(gt.intersection(t.confirmed)) / len(gt) for t in log.turns] == [0.5] * turns
    assert next(replies, None) is None
    fingerprints = "\n".join(map(_sha256, bodies))
    assert _sha256(pre_slim(json.loads(log.to_json()))) == PRE_SLIM_LLM_LOG_SHA256
    assert _sha256(log.to_json()) == LLM_LOG_SHA256
    assert _sha256(fingerprints) == LLM_FINGERPRINTS_SHA256


@pytest.fixture(scope="module")
def batches():
    bank = synthesize_bank(SynthSpec(n_patients=4, snippets_per_patient=8), seed=11)
    cfg = EpisodeConfig(seed=5, max_turns=12)
    comps = build_components(cfg, bank)
    return {mode: run_batch(cfg, bank, mode, 4, components=comps) for mode in ("tpa", "random", "replay")}


@pytest.mark.parametrize("mode", ["tpa", "random", "replay"])
def test_read_then_to_json_reproduces_each_written_file(batches, mode, tmp_path):
    paths = write_logs(batches[mode], tmp_path)
    again = list(read_logs(tmp_path))
    assert [log.episode_id + ".json" for log in again] == [p.name for p in paths]
    for path, log in zip(paths, again):
        assert (log.to_json() + "\n").encode("utf-8") == path.read_bytes()


@pytest.mark.parametrize("mode", ["tpa", "random", "replay"])
def test_to_json_is_one_line_of_sorted_json_that_parses_back_to_the_log(batches, mode):
    for log in batches[mode].logs:
        text = log.to_json()
        assert "\n" not in text
        assert text == json.dumps(json.loads(text), sort_keys=True, ensure_ascii=False)
        assert EpisodeLog.from_json(text) == log


def _renumbered(log: EpisodeLog, numbers: list[int]) -> dict:
    doc = log.to_dict()
    doc["turns"] = [dict(doc["turns"][i % len(doc["turns"])], turn=n) for i, n in enumerate(numbers)]
    return doc


@pytest.mark.parametrize("numbers", [[], [1], [1, 2, 3]], ids=str)
def test_turns_numbered_one_to_n_in_order_parse(batches, numbers):
    log = EpisodeLog.from_dict(_renumbered(batches["tpa"].logs[0], numbers))
    assert [t.turn for t in log.turns] == numbers


@pytest.mark.parametrize(
    "numbers", [[0], [2], [2, 3, 4], [1, 3, 2], [3, 2, 1], [1, 1, 2], [1, 2, 4], [0, 1, 2]], ids=str
)
def test_turns_numbered_otherwise_raise_log_format_error(batches, numbers):
    with pytest.raises(LogFormatError, match="turns must be numbered"):
        EpisodeLog.from_dict(_renumbered(batches["tpa"].logs[0], numbers))


@pytest.mark.parametrize(
    "text",
    ["café", "日本語の返事", "a smile 🙂", 'a "quote" and a \\ backslash', "tab\tand\nnewline",
     "a line\u2028separator", "nul\x00and\x1fcontrols"],
    ids=["latin", "cjk", "emoji", "quote", "whitespace", "u2028", "controls"],
)
def test_reply_text_reads_back_unchanged_from_its_written_file(batches, text, tmp_path):
    log = batches["tpa"].logs[0]
    turns = tuple(replace(t, response=text + str(t.turn)) for t in log.turns)
    log = replace(log, turns=turns)
    (path,) = write_logs(BatchResult(logs=(log,), skipped=()), tmp_path)
    written = path.read_text("utf-8")
    assert written.count("\n") == 1 and written.endswith("\n")
    # ensure_ascii=False: printable non-ASCII text is written as itself, not as \u escapes
    assert all(c in written for c in text if ord(c) > 127)
    assert list(read_logs(tmp_path)) == [log]


@pytest.mark.parametrize("score", [0.0, -0.0, 0.1, 1 / 3, 5e-324, 1e308, -1.0], ids=repr)
def test_a_float_reads_back_with_its_value_and_sign(batches, score):
    log = batches["tpa"].logs[0]
    log = replace(log, turns=tuple(replace(t, anchor_score=score) for t in log.turns))
    again = EpisodeLog.from_json(log.to_json())
    assert all(repr(t.anchor_score) == repr(score) for t in again.turns)
    assert again.to_json() == log.to_json()


def _peak_bytes_to_aggregate(log_dir: Path) -> int:
    tracemalloc.start()
    try:
        aggregate(read_logs(log_dir))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evaluating_a_log_directory_holds_one_log_at_a_time(batches, tmp_path):
    # a held 12-turn log costs about 32 KB; what aggregate keeps of each is its metrics, about 1 KB
    log = batches["tpa"].logs[0]
    peaks = {}
    for n in (100, 400):
        logs = tuple(replace(log, episode_id=f"tpa-{i:04d}-{log.patient_id}") for i in range(n))
        write_logs(BatchResult(logs=logs, skipped=()), tmp_path / str(n))
        aggregate(read_logs(tmp_path / str(n)))  # untraced, so that lazy set-up is not counted once
        peaks[n] = _peak_bytes_to_aggregate(tmp_path / str(n))
    assert peaks[400] - peaks[100] <= 300 * 4096


def test_the_log_format_names_runner_cli_and_metrics_import_are_the_same_objects():
    # perfbench patches runner.EpisodeLog.to_json, runner.write_logs, cli.read_logs and cli.aggregate
    # by name, and builds runner.EpisodeConfig; each must be the object the code that runs uses
    from elicit import cli, config, episode_log, metrics, runner

    for name in ("BatchResult", "EpisodeLog", "TurnRecord", "write_logs"):
        assert getattr(runner, name) is getattr(episode_log, name), name
    for name in ("BatchResult", "read_logs", "write_logs"):
        assert getattr(cli, name) is getattr(episode_log, name), name
    assert metrics.EpisodeLog is episode_log.EpisodeLog and cli.aggregate is metrics.aggregate
    assert runner.EpisodeConfig is config.EpisodeConfig and runner.KINDS is cli.KINDS is config.KINDS
