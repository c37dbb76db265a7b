import gc
import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elicit.bank import (
    REQUIRED_FIELDS,
    BankSchemaError,
    SynthSpec,
    THETA_EPS,
    UnknownPatientError,
    base_rates,
    ingest,
    synthesize_bank,
    write_bank,
)
from elicit.detector import RuleDetector
from elicit.ontology import TraitId, default_ontology

GOLDEN = Path(__file__).parent / "data" / "golden_bank.jsonl"


def test_ingest_golden_bank():
    bank = ingest(GOLDEN)
    assert len(bank) == 4
    assert bank.patient_ids() == ["P001", "P002"]
    assert not bank.warnings


def test_ingest_count_preserved(tmp_path):
    lines = [
        {"patient_id": "A", "session_id": "s", "scenario_id": 3,
         "doctor_curr": f"q{i}", "patient_reply": f"r{i}", "traits": []}
        for i in range(3)
    ]
    lines.append(dict(lines[0], excluded_from_eval=True))  # a key outside REQUIRED_FIELDS is ignored
    p = tmp_path / "bank.jsonl"
    p.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    assert len(ingest(p)) == 4


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"], ids=["u2028", "u2029", "u0085"])
def test_ingest_keeps_a_raw_line_separator_inside_a_string(tmp_path, separator):
    # JSON allows these raw inside a string, so only "\n" ends a line
    reply = f"It went fine.{separator}Then we left."
    line = {"patient_id": "A", "session_id": "s", "scenario_id": 3,
            "doctor_curr": "q", "patient_reply": reply, "traits": []}
    p = tmp_path / "bank.jsonl"
    p.write_text(json.dumps(line, ensure_ascii=False) + "\n", encoding="utf-8")
    assert [s.patient_reply for s in ingest(p).snippets] == [reply]


def test_ingest_reads_crlf_line_ends(tmp_path):
    lines = [
        {"patient_id": "A", "session_id": "s", "scenario_id": 3,
         "doctor_curr": f"q{i}", "patient_reply": f"r{i}", "traits": ["F2"]}
        for i in range(3)
    ]
    p = tmp_path / "bank.jsonl"
    p.write_bytes("".join(json.dumps(l) + "\r\n" for l in lines).encode("utf-8"))
    assert [s.patient_reply for s in ingest(p).snippets] == ["r0", "r1", "r2"]


def test_ingest_unknown_trait_names_line(tmp_path):
    good = {"patient_id": "A", "session_id": "s", "scenario_id": 3,
            "doctor_curr": "q", "patient_reply": "r", "traits": []}
    bad = dict(good, traits=["F12"])
    p = tmp_path / "bank.jsonl"
    p.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(BankSchemaError) as exc:
        ingest(p)
    assert exc.value.line_no == 2
    assert "line 2" in str(exc.value)


def test_ingest_scenario_out_of_range(tmp_path):
    bad = {"patient_id": "A", "session_id": "s", "scenario_id": 16,
           "doctor_curr": "q", "patient_reply": "r", "traits": []}
    p = tmp_path / "bank.jsonl"
    p.write_text(json.dumps(bad) + "\n")
    with pytest.raises(BankSchemaError, match="scenario_id"):
        ingest(p)


def test_ingest_missing_field(tmp_path):
    bad = {"patient_id": "A", "session_id": "s", "scenario_id": 3, "doctor_curr": "q", "traits": []}
    p = tmp_path / "bank.jsonl"
    p.write_text(json.dumps(bad) + "\n")
    with pytest.raises(BankSchemaError, match="patient_reply"):
        ingest(p)


@pytest.mark.parametrize("key,value", [
    ("traits", None), ("traits", 5), ("traits", "F2"), ("traits", [2]),
    ("patient_id", None), ("patient_id", True), ("session_id", ["S1"]),
    ("patient_id", "P/1"), ("patient_id", "P\x00"),
    ("scenario_id", True), ("scenario_id", "3"),
])
def test_ingest_wrong_typed_field_names_line(tmp_path, key, value):
    first = json.loads(GOLDEN.read_text("utf-8").splitlines()[0])
    p = tmp_path / "bank.jsonl"
    p.write_text(json.dumps(first) + "\n" + json.dumps(dict(first, **{key: value})) + "\n")
    with pytest.raises(BankSchemaError, match=key) as exc:
        ingest(p)
    assert exc.value.line_no == 2


_MISSING = object()


@pytest.mark.parametrize("faults,message", [
    ({"scenario_id": 0, "patient_id": None}, "scenario_id out of range 1..15: 0"),
    ({"doctor_curr": " ", "session_id": True}, "doctor_curr must be non-empty text"),
    ({"traits": _MISSING, "session_id": _MISSING}, "missing field 'session_id'"),
    ({"patient_reply": _MISSING, "scenario_id": "3"}, "missing field 'patient_reply'"),
    ({"patient_id": 1.5, "doctor_curr": None}, "patient_id must be a string or an integer, got 1.5"),
    ({"patient_id": "P/1", "doctor_curr": ""}, "patient_id must not hold '/' or U+0000, got 'P/1'"),
    ({"doctor_curr": 5, "patient_reply": ""}, "doctor_curr must be non-empty text"),
    ({"patient_reply": ["r"], "session_id": False}, "patient_reply must be non-empty text"),
    ({"session_id": [], "traits": "F1"}, "session_id must be a string or an integer, got []"),
], ids=["scenario-patient", "doctor-session", "missing-two", "missing-and-scenario", "patient-type-doctor",
        "patient-slash-doctor", "doctor-reply", "reply-session", "session-traits"])
def test_a_line_with_two_faults_names_the_first_in_check_order(tmp_path, faults, message):
    # order: a missing field, scenario_id, patient_id's type, '/' or NUL, doctor_curr, patient_reply,
    # session_id, traits
    first = json.loads(GOLDEN.read_text("utf-8").splitlines()[0])
    line = {k: v for k, v in dict(first, **faults).items() if v is not _MISSING}
    p = tmp_path / "bank.jsonl"
    p.write_text(json.dumps(line) + "\n")
    with pytest.raises(BankSchemaError) as exc:
        ingest(p)
    assert str(exc.value) == f"line 1: {message}"


def test_ingest_reads_an_integer_id_as_text(tmp_path):
    first = json.loads(GOLDEN.read_text("utf-8").splitlines()[0])
    p = tmp_path / "bank.jsonl"
    p.write_text(json.dumps(dict(first, patient_id=7, session_id=2)) + "\n")
    snippet = ingest(p).snippets[0]
    assert (snippet.patient_id, snippet.session_id) == ("7", "2")


def test_ingest_empty_file_warns(tmp_path):
    p = tmp_path / "bank.jsonl"
    p.write_text("")
    bank = ingest(p)
    assert len(bank) == 0
    assert bank.warnings


def test_ingest_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        ingest(tmp_path / "nope.jsonl")


def test_by_patient_covers_every_snippet(synth_bank):
    assert sum(len(v) for v in synth_bank.by_patient.values()) == len(synth_bank)


def test_base_rates_hand_count(tmp_path):
    lines = []
    for i in range(10):
        lines.append({
            "patient_id": "A", "session_id": "s", "scenario_id": 3,
            "doctor_curr": f"q{i}", "patient_reply": f"r{i}",
            "traits": ["F2"] if i < 5 else [],
        })
    p = tmp_path / "bank.jsonl"
    p.write_text("\n".join(json.dumps(l) for l in lines))
    profile = base_rates(ingest(p), "A")
    assert profile.base_rates[TraitId.F2] == pytest.approx(0.5)
    assert profile.ground_truth == {TraitId.F2}
    # absent trait clamps to the floor
    assert profile.base_rates[TraitId.F7] == pytest.approx(THETA_EPS)


def test_base_rates_clamp_ceiling(tmp_path):
    lines = [{"patient_id": "A", "session_id": "s", "scenario_id": 3,
              "doctor_curr": "q", "patient_reply": "r", "traits": ["F3"]}]
    p = tmp_path / "bank.jsonl"
    p.write_text(json.dumps(lines[0]))
    profile = base_rates(ingest(p), "A")
    assert profile.base_rates[TraitId.F3] == pytest.approx(1.0 - THETA_EPS)


def test_base_rates_unknown_patient(synth_bank):
    with pytest.raises(UnknownPatientError):
        base_rates(synth_bank, "nobody")


def test_base_rates_pure(synth_bank):
    a = base_rates(synth_bank, "P001")
    b = base_rates(synth_bank, "P001")
    assert a == b


def test_synthesize_deterministic(tmp_path):
    spec = SynthSpec(n_patients=2, snippets_per_patient=5)
    b1 = synthesize_bank(spec, seed=42)
    b2 = synthesize_bank(spec, seed=42)
    p1, p2 = tmp_path / "b1.jsonl", tmp_path / "b2.jsonl"
    write_bank(b1, p1)
    write_bank(b2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_synthesize_differs_across_seeds():
    spec = SynthSpec(n_patients=2, snippets_per_patient=5)
    assert synthesize_bank(spec, seed=1).snippets != synthesize_bank(spec, seed=2).snippets


def test_synthetic_round_trip_exact(synth_bank):
    detector = RuleDetector(default_ontology())
    for s in synth_bank.snippets:
        assert detector.detect(s.doctor_curr, s.patient_reply).positive() == s.traits


def test_synthesize_single_snippet_has_ground_truth():
    bank = synthesize_bank(SynthSpec(n_patients=1, snippets_per_patient=1), seed=7)
    profile = base_rates(bank, "P001")
    assert profile.ground_truth


def test_synthesize_invalid_spec():
    with pytest.raises(ValueError):
        synthesize_bank(SynthSpec(n_patients=0, snippets_per_patient=5), seed=1)


def test_write_then_ingest_round_trip(tmp_path, synth_bank):
    p = tmp_path / "bank.jsonl"
    write_bank(synth_bank, p)
    again = ingest(p)
    assert again.snippets == synth_bank.snippets


_VALID_LINES = [json.dumps(s.to_dict(), sort_keys=True) for s in synthesize_bank(SynthSpec(3, 3), seed=5).snippets]


@st.composite
def _bank_lines(draw) -> tuple[str, str | None]:
    """A valid synthetic bank line, or one mutated in a way that may break it, and how that line must
    ingest alone: "ok", the start of its fault's message, or None where the mutation may go either way."""
    doc = json.loads(draw(st.sampled_from(_VALID_LINES)))
    kind = draw(st.sampled_from(["valid", "drop", "wrong type", "escapes", "lone surrogate", "unhashable trait",
                                 "trait object", "whitespace", "two values", "blank"]))
    expected = {"drop": "missing field", "lone surrogate": "invalid JSON", "unhashable trait": "traits must be",
                "trait object": "traits must be", "two values": "invalid JSON", "wrong type": None}.get(kind, "ok")
    if kind == "drop":
        del doc[draw(st.sampled_from(REQUIRED_FIELDS))]
    elif kind == "wrong type":
        doc[draw(st.sampled_from(REQUIRED_FIELDS))] = draw(st.sampled_from([None, 0, 1.5, True, "", " ", [], {}]))
    elif kind == "escapes":  # written as \" and \u00e9: valid
        doc["doctor_curr"] += ' "quoted" caf\u00e9'
    elif kind == "lone surrogate":
        doc[draw(st.sampled_from(["patient_reply", "session_id"]))] += "\ud800"
    elif kind == "unhashable trait":
        doc["traits"] = draw(st.sampled_from([[["F1"]], [{}], ["F2", ["F1"]], ["F1", {"F2": 1}]]))
    elif kind == "trait object":  # its keys are a valid list's names
        doc["traits"] = dict.fromkeys(doc["traits"], True)
    line = json.dumps(doc, sort_keys=True)
    if kind == "whitespace":  # JSON whitespace is valid around a value; a form feed is not
        if draw(st.booleans()):
            line = draw(st.sampled_from([" ", "\t", "\x0c"])) + line  # a leading "\r": the xfail example below
        else:
            line += draw(st.sampled_from([" ", "\t", "\r", "\x0c"]))
        expected = "invalid JSON" if "\x0c" in line else "ok"
    elif kind == "two values":
        line += draw(st.sampled_from(["", " "])) + line
    elif kind == "blank":
        line = draw(st.sampled_from(["", " ", "\t", "\r", "\x0c"]))
    return line, expected


def _ingested(path: Path):
    """`ingest(path)`'s snippets as a list, or its error's line number and message without the line."""
    try:
        return list(ingest(path).snippets)
    except BankSchemaError as e:
        return e.line_no, str(e).partition(": ")[2]


def _with_traits(line: str, traits) -> str:
    return json.dumps(dict(json.loads(line), traits=traits), sort_keys=True)


@settings(max_examples=40, deadline=None)
@given(drawn=st.lists(_bank_lines(), min_size=1, max_size=8))
@example(drawn=[  # an object whose keys are the names of an earlier valid list
    (_with_traits(_VALID_LINES[0], ["F7", "F8"]), "ok"),
    (_with_traits(_VALID_LINES[0], {"F7": True, "F8": True}), "traits must be"),
])
@example(drawn=[  # read_text reads a lone "\r" as a line end, so the second line is numbered 3 (CHANGES.md FOUND)
    ("\r" + _VALID_LINES[0], "ok"),
    (json.dumps(dict(json.loads(_VALID_LINES[1]), traits=None)), "traits must be"),
]).xfail(reason="a lone CR splits a JSON-lines line", raises=AssertionError)
def test_a_bank_fails_on_its_first_line_that_fails_alone_with_that_lines_message(drawn):
    lines = [line for line, _ in drawn]
    with tempfile.TemporaryDirectory() as tmp:
        alone = []
        for i, (line, expected) in enumerate(drawn):
            p = Path(tmp) / f"line{i}.jsonl"
            p.write_text(line + "\n", encoding="utf-8")
            alone.append(_ingested(p))
            if expected == "ok":
                assert type(alone[-1]) is list
            elif expected:
                assert alone[-1][0] == 1 and alone[-1][1].startswith(expected)
        whole = Path(tmp) / "bank.jsonl"
        whole.write_text("\n".join(lines) + "\n", encoding="utf-8")
        faults = [(i, result[1]) for i, result in enumerate(alone, start=1) if type(result) is tuple]
        if faults:
            assert _ingested(whole) == faults[0]
        else:
            assert _ingested(whole) == [s for snippets in alone for s in snippets]


def test_equal_trait_lists_share_one_set_and_a_snippet_keeps_under_600_bytes(tmp_path):
    p = tmp_path / "bank.jsonl"
    write_bank(synthesize_bank(SynthSpec(n_patients=200, snippets_per_patient=10), seed=1), p)
    gc.collect()
    tracemalloc.start()
    try:
        bank = ingest(p)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(bank) == 2000
    assert kept / len(bank) < 600  # 560 B each with one set per distinct list, 769 B with one set per line
    shared = {}
    assert all(shared.setdefault(s.traits, s.traits) is s.traits for s in bank.snippets)
    assert len({id(s.traits) for s in bank.snippets}) == len(shared) < 100


@settings(max_examples=20, deadline=None)
@given(
    n_patients=st.integers(min_value=1, max_value=4),
    snippets=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_synth_round_trip_property(n_patients, snippets, seed):
    bank = synthesize_bank(SynthSpec(n_patients=n_patients, snippets_per_patient=snippets), seed=seed)
    detector = RuleDetector(default_ontology())
    assert sum(len(v) for v in bank.by_patient.values()) == len(bank)
    for s in bank.snippets:
        assert detector.detect(s.doctor_curr, s.patient_reply).positive() == s.traits
