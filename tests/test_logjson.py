import enum
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elicit import belief, logjson
from elicit.bank import SynthSpec, ingest, synthesize_bank
from elicit.ontology import TraitId
from elicit.patient import EmissionParams
from elicit.runner import EpisodeConfig, read_logs, run_batch, write_logs

GOLDEN = Path(__file__).parent / "data" / "golden_bank.jsonl"

# sha256 of each log file run_batch writes on the golden bank with the CLI's
# defaults (seed 0, 20 turns), keyed by mode and any emitter settings, in the
# shape written while every turn logged a full Beta snapshot of every trait
# (`belief_snapshot`). The default-emitter rows were recorded with the stdlib
# json.dumps writer before the episode-log writer replaced it; the rows with
# emitter hooks, which run one episode per golden patient, before the runner
# and leave-one-out fidelity shared one patient turn
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
    "tpa affinity_weight=0.7": {
        "tpa-0000-P001.json": "0f751b9aa1c430533f418ae7224c882e49d80d7446015fc73afacabdfb8d64c6",
        "tpa-0001-P002.json": "ff4fb4fcb2a565b30545bf16736b40175261aa3d2b15bfe309f7f96ce571a6f3",
    },
    # on this bank the affinity hook at 0.7 moves no random-mode draw: these are the default bytes
    "random affinity_weight=0.7": {
        "random-0000-P001.json": "7b72efed159355fa9d2ce852beb9a2639556856edb953d69806fb4241ad8515d",
        "random-0001-P002.json": "1bdf82ceebd80004302b0626856cfbe5fc526d47456beeec9104af4218b269a7",
    },
    "tpa strategy_gain=1.5 affinity_weight=0.7": {
        "tpa-0000-P001.json": "cf5bf47bdb297c092bf04f622b003215405049ccb38e058942007c9beb72c785",
        "tpa-0001-P002.json": "b31905b9561423d166c491f1225782a9dac0135574008be328f5bb91f6d89f16",
    },
}

# sha256 of the same files now that each turn logs only its confirmed traits;
# `test_golden_bank_logs_fold_back_to_their_pre_slim_bytes` ties them to the rows above
GOLDEN_LOG_SHA256 = {
    "tpa": {"tpa-0000-P001.json": "6b3db33e3ae7d0f75dd8a22a112218fe99c91b01a03ad21a82a8b7cfe3f474a0"},
    "random": {"random-0000-P001.json": "4d32db64b7cd8d33b14cd35c85411c01ac3d61b7c7fdf47caf38e27c07a5ecde"},
    "replay": {"replay-0000-P001.json": "7732af7324b84a027e62108a3a6a11b0fa14c3d1fc3a4bf0b6eaef69d0e08442"},
    "tpa strategy_gain=1.5": {
        "tpa-0000-P001.json": "2b110946c24fc1fbd36f943692a34f169582cdae6df3b1f437948186197f8567",
        "tpa-0001-P002.json": "d29945a9f922f4945879bafaf4b810ac3a785c75cc627aeceafee30056ab118e",
    },
    "random strategy_gain=1.5": {
        "random-0000-P001.json": "4d32db64b7cd8d33b14cd35c85411c01ac3d61b7c7fdf47caf38e27c07a5ecde",
        "random-0001-P002.json": "c88966bd5b574499e92099fdaca6f2d4314f54291d1eea3191817d85c595e4c5",
    },
    "tpa affinity_weight=0.7": {
        "tpa-0000-P001.json": "7ce3dfe648c93f78dde23188c75e6b4eaaa2d4dbc402adbf527d3e3bc03e15ac",
        "tpa-0001-P002.json": "aa01a3aed8ca9999ca2001cc7f6fda780fe0d380bff9ec84e03bffc48cb3baf3",
    },
    "random affinity_weight=0.7": {
        "random-0000-P001.json": "4d32db64b7cd8d33b14cd35c85411c01ac3d61b7c7fdf47caf38e27c07a5ecde",
        "random-0001-P002.json": "6b4f23d8d35f1e9e9a1f169021eca2154da3ce759e52fafaf8c1be46d7867ade",
    },
    "tpa strategy_gain=1.5 affinity_weight=0.7": {
        "tpa-0000-P001.json": "2b110946c24fc1fbd36f943692a34f169582cdae6df3b1f437948186197f8567",
        "tpa-0001-P002.json": "f8fafe8c3afe7ea9942a2b042acd117b62d241fd6e291d2e1816935d23ed3b23",
    },
}


def _golden_bank_logs(case: str, out: Path) -> list[Path]:
    mode, *settings = case.split()
    emission = EmissionParams(**{k: float(v) for k, v in (s.split("=") for s in settings)})
    result = run_batch(EpisodeConfig(emission=emission), ingest(GOLDEN), mode, len(PRE_SLIM_LOG_SHA256[case]))
    return write_logs(result, out)


def pre_slim(doc: dict) -> dict:
    """`doc`, a parsed episode log, in the shape that logged a Beta snapshot each turn.

    Folds `belief.update` over each turn's detection labels from a fresh state
    at the log's tau, checks the turn's confirmed list against the fold, and
    writes the folded snapshot in its place.
    """
    state = belief.BeliefState.fresh(tau=doc["tau"])
    for turn in doc["turns"]:
        state = belief.update(state, {TraitId.parse(n): v for n, v in turn["detections"]["labels"].items()})
        assert turn.pop("confirmed") == [t.name for t in sorted(state.confirmed)]
        turn["belief_snapshot"] = {
            t.name: {"alpha": b.alpha, "beta": b.beta, "mean": b.mean, "confirmed": t in state.confirmed}
            for t, b in state.beliefs.items()
        }
    return doc


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", list(GOLDEN_LOG_SHA256))
def test_golden_bank_logs_keep_their_bytes(case, tmp_path):
    paths = _golden_bank_logs(case, tmp_path)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths} == GOLDEN_LOG_SHA256[case]


@pytest.mark.parametrize("case", list(PRE_SLIM_LOG_SHA256))
def test_golden_bank_logs_fold_back_to_their_pre_slim_bytes(case, tmp_path):
    paths = _golden_bank_logs(case, tmp_path)
    folded = {p.name: _sha256(logjson.dumps(pre_slim(json.loads(p.read_text("utf-8")))) + "\n") for p in paths}
    assert folded == PRE_SLIM_LOG_SHA256[case]


# sha256 of the log an all-llm episode writes on the golden bank when a scripted
# backend serves every reply, in its pre-slim shape and now, and of the
# fingerprints of the requests it sent, one a line; the pre-slim digest was
# recorded before the selector and detector shared one reply parser
PRE_SLIM_LLM_LOG_SHA256 = "844bc9670e3a841b9eb1a1ed5869b7678f29de5da29205a49e23c205ec548fc7"
LLM_LOG_SHA256 = "631f3f75244ea1f01f74c082ddb60617f4fea5c9d4375f867ad86f8c32f2d2e3"
LLM_FINGERPRINTS_SHA256 = "6031557561b1a9e204d591c0c9de0e9e742af657b7a0ab3c74fb07dde22c72f6"


def test_all_llm_episode_keeps_its_log_bytes_and_requests():
    from elicit.backends import ScriptedBackend
    from elicit.bank import base_rates
    from elicit.ontology import ALL_TRAITS, STRATEGY_ORDER
    from elicit.runner import build_components, run_episode

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
    client = ScriptedBackend(script=script)
    cfg = EpisodeConfig(max_turns=turns, seed=3, selector_kind="llm", realiser_kind="llm", detector_kind="llm")
    bank = ingest(GOLDEN)
    comps = build_components(cfg, bank, client=client)
    log = run_episode(cfg, bank, base_rates(bank, "P001"), comps, "llm-0000-P001")
    assert not log.aborted and [t.coverage_after for t in log.turns] == [0.5] * turns
    fingerprints = "\n".join(r.fingerprint() for r in client.requests)
    assert _sha256(logjson.dumps(pre_slim(json.loads(log.to_json())))) == PRE_SLIM_LLM_LOG_SHA256
    assert _sha256(log.to_json()) == LLM_LOG_SHA256
    assert hashlib.sha256(fingerprints.encode("utf-8")).hexdigest() == LLM_FINGERPRINTS_SHA256


def oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, indent=1)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**40


class Tally(int):
    # json writes an int subclass with int.__repr__, never with its own str or repr
    def __repr__(self):
        return "Tally()"

    __str__ = __repr__


# every character category, lone surrogates and control characters included
_text = st.text(st.characters(exclude_categories=()), max_size=12) | st.sampled_from(
    ["", "\\", "\"", "\n\t\r\b\f", "\x00\x1f\x7f", "\u2028\u2029", "é漢字🙂", "\ud800"]
)
_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e308, 0.1, 1 / 3]
)
_scalars = (
    _text
    | st.integers(min_value=-(2**64), max_value=2**64)
    | _floats
    | st.booleans()
    | st.none()
    | st.sampled_from(list(Level))
    | st.integers().map(Tally)
    | _floats.map(np.float64)
)
_documents = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_text, inner, max_size=5)
    | st.dictionaries(st.integers(min_value=-(2**64), max_value=2**64) | st.booleans(), inner, max_size=4)
    | st.dictionaries(_floats, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(_documents)
def test_dumps_equals_the_json_dumps_oracle(doc):
    expected = oracle(doc)
    assert logjson.dumps(doc) == expected
    assert logjson.dumps(doc) == expected  # a second time, served from the memos


@pytest.fixture
def empty_memos():
    logjson._float_texts.clear()
    logjson._scalar_dict_texts.clear()
    yield
    logjson._float_texts.clear()
    logjson._scalar_dict_texts.clear()


@pytest.mark.parametrize(
    "docs",
    [
        [0.0, -0.0],
        [[0.0], [-0.0]],
        [{"a": 0.0}, {"a": -0.0}],
        [{0.0: "a"}, {-0.0: "a"}],
        [{"a": 1}, {"a": 1.0}, {"a": True}],
        [{1: "a"}, {1.0: "a"}, {True: "a"}],
        [{"a": 0}, {"a": 0.0}, {"a": False}, {"a": -0.0}],
        [{"a": Level.LOW}, {"a": 1}, {"a": np.float64(1.0)}, {"a": 1.0}],
        [{"a": {"b": 1}}, {"a": {"b": 1.0}}, {"a": {"b": True}}],
    ],
    ids=repr,
)
@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_values_that_compare_equal_never_share_a_memo_entry(empty_memos, docs, order):
    for doc in docs if order == "forward" else docs[::-1]:
        assert logjson.dumps(doc) == oracle(doc)
        assert logjson.dumps(doc) == oracle(doc)


def test_the_memos_stay_bounded(empty_memos):
    for i in range(3 * logjson._MEMO_SIZE):
        x = 1.0 + i / 7
        doc = {"mean": x, "confirmed": i % 2 == 0}
        assert logjson.dumps([x, doc]) == oracle([x, doc])
    assert 0 < len(logjson._float_texts) <= logjson._MEMO_SIZE
    assert 0 < len(logjson._scalar_dict_texts) <= logjson._MEMO_SIZE


def test_unserialisable_values_raise_type_error_as_json_does():
    for doc in ({"a": object()}, [np.int64(3)], {(1, 2): "tuple key"}, {1: "a", "b": 2}):
        with pytest.raises(TypeError):
            oracle(doc)
        with pytest.raises(TypeError):
            logjson.dumps(doc)


@pytest.fixture(scope="module")
def batches():
    bank = synthesize_bank(SynthSpec(n_patients=4, snippets_per_patient=8), seed=11)
    cfg = EpisodeConfig(seed=5, max_turns=12)
    return {mode: run_batch(cfg, bank, mode, 4) for mode in ("tpa", "random", "replay")}


@pytest.mark.parametrize("mode", ["tpa", "random", "replay"])
def test_every_batch_log_equals_the_oracle(batches, mode):
    logs = batches[mode].logs
    assert logs
    for log in logs:
        assert log.to_json() == oracle(log.to_dict())


@pytest.mark.parametrize("mode", ["tpa", "random", "replay"])
def test_read_then_to_json_reproduces_each_written_file(batches, mode, tmp_path):
    paths = write_logs(batches[mode], tmp_path)
    again = read_logs(tmp_path)
    assert [log.episode_id + ".json" for log in again] == [p.name for p in paths]
    for path, log in zip(paths, again):
        assert (log.to_json() + "\n").encode("utf-8") == path.read_bytes()
