import json
import re
from importlib import resources

import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from elicit.detector import (
    DetectionResult,
    DetectorParseError,
    EmptyResponseError,
    LlmDetector,
    RuleDetector,
)
from elicit.ontology import ALL_TRAITS, OntologyError, TraitId, default_ontology, load_ontology

from conftest import ScriptedBackend

DET = RuleDetector(default_ontology())
Q = "And how did that go?"


def test_f6_marker():
    result = DET.detect(Q, "We got there late, you know what I mean, and left early.")
    assert result.positive() == {TraitId.F6}


def test_plain_response_all_false():
    result = DET.detect(Q, "The weather is fine.")
    assert result.positive() == frozenset()
    assert result.labels == (False,) * len(ALL_TRAITS)
    assert not result.evidence


def test_two_traits():
    result = DET.detect(Q, "It is the circle of life and we move on, as they say.")
    assert result.positive() == {TraitId.F10, TraitId.F6}


def test_case_insensitive():
    text = "It is the CIRCLE OF LIFE after all."
    upper = DET.detect(Q, text.upper())
    lower = DET.detect(Q, text.lower())
    assert upper.labels == lower.labels
    assert upper.positive() == {TraitId.F10}


def test_word_boundary_no_partial_match():
    # "mideast" must not fire inside a larger word
    result = DET.detect(Q, "The mideastern region was on the news.")
    assert TraitId.F2 not in result.positive()
    result = DET.detect(Q, "He said mideast when he meant something else.")
    assert TraitId.F2 in result.positive()


def test_evidence_is_first_span():
    result = DET.detect(Q, "Ready to roll, circle of life, that is me.")
    assert result.evidence[TraitId.F10].lower() == "ready to roll"
    assert set(result.evidence) == {TraitId.F10}


def test_evidence_only_where_true():
    result = DET.detect(Q, "Nothing special happened today.")
    assert result.evidence == {}


def test_every_marker_fires_exactly_its_owner(ontology):
    # lexicon disjointness means a phrase can never light up two traits
    for owner, definition in ontology.traits.items():
        for phrase in definition.marker_lexicon:
            result = DET.detect(Q, f"Leading words then {phrase} and trailing words.")
            assert result.positive() == {owner}, phrase


def ten_search_detect(ontology, response: str) -> DetectionResult:
    """The oracle: one search per trait, each trait's evidence its own leftmost match.

    Its patterns are the marker grammar written out plainly, without the
    package's first-character lookahead.
    """
    patterns = [
        re.compile(rf"\b(?:{'|'.join(map(re.escape, ontology.traits[t].marker_lexicon))})\b", re.IGNORECASE)
        for t in ALL_TRAITS
    ]
    matches = [p.search(response) for p in patterns]
    return DetectionResult(
        labels=tuple(m is not None for m in matches),
        evidence={t: m.group(0) for t, m in zip(ALL_TRAITS, matches) if m is not None},
    )


# A vocabulary in which phrases of one trait start inside phrases of another:
# F2 inside F1 ("okay then" / "then again"), F3 inside F2, and F7 after the
# hyphen of F6.
OVERLAPPING_MARKERS = {
    "F1": ["okay then", "word for word"],
    "F2": ["then again", "mideast"],
    "F3": ["again and again"],
    "F4": ["big deal"],
    "F5": ["no worries"],
    "F6": ["x-ray"],
    "F7": ["ray of hope"],
    "F8": ["fine fine fine", "kind of fine"],
    "F9": ["as they say", "so to speak"],
    "F10": ["circle of life", "ready to roll"],
}


def write_ontology(path, markers):
    doc = json.loads(resources.files("elicit").joinpath("data/ontology.json").read_text("utf-8"))
    for entry in doc["traits"]:
        entry["markers"] = markers[entry["id"]]
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_ontology(path)


@pytest.fixture(scope="module")
def overlapping(tmp_path_factory):
    return write_ontology(tmp_path_factory.mktemp("ontology") / "overlapping.json", OVERLAPPING_MARKERS)


@pytest.mark.parametrize("phrase,message", [
    ("OKAY THEN", "marker 'okay then' owned by both F1 and F4"),
    ("\u212aind of fine", "marker '\u212aind of fine' owned by both F4 and F8"),  # KELVIN SIGN
    ("okay", "marker 'okay' (F4) is contained in 'okay then' (F1)"),
    ("then", "marker 'then' (F4) is contained in 'okay then' (F1)"),
])
def test_a_marker_that_could_match_where_another_traits_marker_matches_is_rejected(tmp_path, phrase, message):
    # the rule detector's one scan is exact only because no two traits can match at one position
    with pytest.raises(OntologyError, match=re.escape(message)):
        write_ontology(tmp_path / "shared.json", {**OVERLAPPING_MARKERS, "F4": [phrase]})


@pytest.mark.parametrize("phrase", ["!wow", "wow!", "!wow there", "", " wow"])
def test_a_marker_phrase_without_word_characters_at_both_ends_is_rejected(tmp_path, phrase):
    # the grammar's \b never matches such a phrase where the realiser puts it
    with pytest.raises(OntologyError, match=f"F4: marker {re.escape(repr(phrase))} must begin and end"):
        write_ontology(tmp_path / "edged.json", {**OVERLAPPING_MARKERS, "F4": [phrase]})


@pytest.mark.parametrize("text,found", [
    ("Well okay then again we left.", {"F1": "okay then", "F2": "then again"}),
    ("okay then again and again", {"F1": "okay then", "F2": "then again", "F3": "again and again"}),
    ("an x-ray of hope", {"F6": "x-ray", "F7": "ray of hope"}),
])
def test_a_phrase_starting_inside_another_traits_match_is_found(overlapping, text, found):
    result = RuleDetector(overlapping).detect(Q, text)
    assert result.to_dict()["evidence"] == found
    assert result == ten_search_detect(overlapping, text)


_PLAIN_WORDS = ("the", "then", "again", "and", "okay", "fine", "wow", "ray", "say", "mideastern", "kinder", "!")
_SEPARATORS = (" ", " ", ", ", "", "-", ". ")
_FOLDS = str.maketrans({"k": "\u212a", "s": "\u017f", "i": "\u0130"})  # KELVIN SIGN, LONG S, DOTTED CAPITAL I
_CASES = (str, str.upper, str.title, lambda s: s.translate(_FOLDS), lambda s: s.upper().translate(_FOLDS))


def _pieces(ont):
    phrases = [p for t in ALL_TRAITS for p in ont.traits[t].marker_lexicon]
    return phrases + sorted({w for p in phrases for w in p.split()}) + list(_PLAIN_WORDS)


@pytest.mark.parametrize("vocabulary", ["embedded", "overlapping"])
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_one_scan_finds_what_ten_searches_find(overlapping, vocabulary, data):
    ont = overlapping if vocabulary == "overlapping" else default_ontology()
    piece = st.tuples(st.sampled_from(_pieces(ont)), st.sampled_from(_CASES)).map(lambda pc: pc[1](pc[0]))
    parts = data.draw(st.lists(st.tuples(piece, st.sampled_from(_SEPARATORS)), min_size=1, max_size=14))
    text = "".join(p + sep for p, sep in parts)
    assume(text.strip())
    assert RuleDetector(ont).detect(Q, text) == ten_search_detect(ont, text)


_VOCABULARY_WORDS = ("okay", "then", "again", "so", "\u017fo", "kind", "\u212aind", "of", "fine", "x-ray", "ray")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_one_scan_finds_what_ten_searches_find_in_a_random_vocabulary(tmp_path_factory, data):
    # one phrase per trait; about a third of the vocabularies pass validation
    phrase = st.lists(st.sampled_from(_VOCABULARY_WORDS), min_size=2, max_size=3).map(" ".join)
    phrases = data.draw(st.lists(phrase, min_size=len(ALL_TRAITS), max_size=len(ALL_TRAITS)))
    try:
        ont = write_ontology(
            tmp_path_factory.getbasetemp() / "random-vocabulary.json",
            {t.name: [p] for t, p in zip(ALL_TRAITS, phrases)},
        )
    except OntologyError:
        reject()
    piece = st.tuples(st.sampled_from(_pieces(ont)), st.sampled_from(_CASES)).map(lambda pc: pc[1](pc[0]))
    texts = st.lists(st.tuples(piece, st.sampled_from(_SEPARATORS)), min_size=1, max_size=10).map(
        lambda parts: "".join(p + sep for p, sep in parts)
    )
    detector = RuleDetector(ont)
    for text in data.draw(st.lists(texts.filter(str.strip), min_size=5, max_size=5)):
        assert detector.detect(Q, text) == ten_search_detect(ont, text)


def test_empty_response_error():
    with pytest.raises(EmptyResponseError):
        DET.detect(Q, "   ")


def test_detection_result_serialises():
    doc = DET.detect(Q, "as they say").to_dict()
    assert doc["labels"]["F6"] is True
    assert doc["labels"]["F1"] is False
    assert doc["evidence"] == {"F6": "as they say"}


def _labels_payload(positive):
    return json.dumps({t.name: (t.name in positive) for t in ALL_TRAITS})


def test_llm_detector_parses_labels():
    client = ScriptedBackend(script=[_labels_payload({"F2", "F6"})])
    det = LlmDetector(client, default_ontology(), prompt_dir=None)
    result = det.detect(Q, "some reply")
    assert result.positive() == {TraitId.F2, TraitId.F6}
    prompt, temperature = client.requests[0]
    assert "some reply" in prompt
    assert "mimics verbatim" in prompt  # definitions ride along as diagnostic knowledge
    assert temperature == 0.0


def test_llm_detector_reads_detect_prompt_from_the_configured_prompt_dir(tmp_path):
    from elicit.runner import EpisodeConfig, build_components

    (tmp_path / "detect.txt").write_text("Custom detector prompt. Reply: {response}", encoding="utf-8")
    client = ScriptedBackend(script=[_labels_payload({"F1"})])
    cfg = EpisodeConfig(detector_kind="llm", prompt_dir=str(tmp_path))
    build_components(cfg, None, client=client).detector.detect(Q, "some reply")
    assert client.requests[0] == ("Custom detector prompt. Reply: some reply", 0.0)


def test_llm_detector_retries_once():
    client = ScriptedBackend(script=["no json here", _labels_payload({"F1"})])
    det = LlmDetector(client, default_ontology(), prompt_dir=None)
    assert det.detect(Q, "reply").positive() == {TraitId.F1}


def test_llm_detector_fails_after_two_bad():
    client = ScriptedBackend(script=["bad", json.dumps({"F1": True})])  # second misses keys
    det = LlmDetector(client, default_ontology(), prompt_dir=None)
    with pytest.raises(DetectorParseError):
        det.detect(Q, "reply")


def test_llm_detector_reads_json_nested_too_deeply_as_an_unusable_reply():
    deep = '{"F1": ' + "[" * 5000 + "]" * 5000 + "}"
    recovers = ScriptedBackend(script=[deep, _labels_payload({"F1"})])
    assert LlmDetector(recovers, default_ontology(), prompt_dir=None).detect(Q, "reply").positive() == {TraitId.F1}
    client = ScriptedBackend(script=[deep, deep])
    with pytest.raises(DetectorParseError, match="unusable reply after one retry: nested too deeply"):
        LlmDetector(client, default_ontology(), prompt_dir=None).detect(Q, "reply")
    assert len(client.requests) == 2


@pytest.mark.parametrize("value", ["false", 1, 0, None])
def test_llm_detector_rejects_labels_that_are_not_bools_after_one_retry(value):
    # a label must be a JSON true or false: "false", 1, 0 and null are not coerced
    payload = json.dumps({t.name: value for t in ALL_TRAITS})
    client = ScriptedBackend(script=[payload, payload])
    with pytest.raises(DetectorParseError, match="F1 must be a bool"):
        LlmDetector(client, default_ontology(), prompt_dir=None).detect(Q, "reply")
    assert len(client.requests) == 2
