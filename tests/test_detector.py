import json

import pytest

from elicit.detector import (
    DetectorParseError,
    EmptyResponseError,
    LlmDetector,
    RuleDetector,
)
from elicit.ontology import ALL_TRAITS, TraitId

from conftest import ScriptedBackend

DET = RuleDetector()
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
    det = LlmDetector(client)
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
    det = LlmDetector(client)
    assert det.detect(Q, "reply").positive() == {TraitId.F1}


def test_llm_detector_fails_after_two_bad():
    client = ScriptedBackend(script=["bad", json.dumps({"F1": True})])  # second misses keys
    det = LlmDetector(client)
    with pytest.raises(DetectorParseError):
        det.detect(Q, "reply")


@pytest.mark.parametrize("value", ["false", 1, 0, None])
def test_llm_detector_rejects_labels_that_are_not_bools_after_one_retry(value):
    # a label must be a JSON true or false: "false", 1, 0 and null are not coerced
    payload = json.dumps({t.name: value for t in ALL_TRAITS})
    client = ScriptedBackend(script=[payload, payload])
    with pytest.raises(DetectorParseError, match="F1 must be a bool"):
        LlmDetector(client).detect(Q, "reply")
    assert len(client.requests) == 2
