import enum
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elicit import logjson
from elicit.bank import SynthSpec, ingest, synthesize_bank
from elicit.runner import EpisodeConfig, read_logs, run_batch, write_logs

GOLDEN = Path(__file__).parent / "data" / "golden_bank.jsonl"

# sha256 of the log files one episode of each mode writes on the golden bank
# with the CLI's defaults (seed 0, 20 turns), recorded with the stdlib
# json.dumps writer before the episode-log writer replaced it
GOLDEN_LOG_SHA256 = {
    "tpa-0000-P001.json": "07d1f2973251c58c6f3f521592c309b33cb331008cb7462e3a808426a0ecf7b2",
    "random-0000-P001.json": "7b72efed159355fa9d2ce852beb9a2639556856edb953d69806fb4241ad8515d",
    "replay-0000-P001.json": "e3389fbfc1fe1fc71f42ff957633da3b8471034d67cca043c3d3c48886c1b836",
}


@pytest.mark.parametrize("mode", ["tpa", "random", "replay"])
def test_golden_bank_logs_keep_their_bytes(mode, tmp_path):
    result = run_batch(EpisodeConfig(), ingest(GOLDEN), mode, 1)
    (path,) = write_logs(result, tmp_path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_LOG_SHA256[path.name]


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
