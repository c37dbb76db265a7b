"""Clinical snippet bank: ingestion, validation, synthesis, and per-patient base rates.

A bank is a flat sequence of (doctor question, patient reply) snippets with
trait annotations. File format is JSON-lines with fields
``patient_id, session_id, scenario_id, doctor_curr, patient_reply, traits``;
other keys are ignored.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass, field, fields
from operator import itemgetter
from pathlib import Path
from typing import Iterable

from .errors import InputError, numbered_lines, parse_json
from .ontology import ALL_TRAITS, TRAIT_BY_NAME, Ontology, TraitId, default_ontology

THETA_EPS = 1e-3  # clamp keeps logit(theta) finite


class BankSchemaError(InputError):
    """A bank line failed validation; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnknownPatientError(KeyError):
    pass


@dataclass(frozen=True)
class Snippet:
    patient_id: str
    session_id: str
    scenario_id: int
    doctor_curr: str
    patient_reply: str
    traits: frozenset[TraitId]

    def to_dict(self) -> dict:
        return {**vars(self), "traits": [t.name for t in sorted(self.traits)]}


REQUIRED_FIELDS = tuple(f.name for f in fields(Snippet))


@dataclass
class SnippetBank:
    snippets: tuple[Snippet, ...]
    warnings: tuple[str, ...] = ()
    by_patient: dict[str, tuple[int, ...]] = field(init=False)  # each patient's snippet indexes, in bank order

    def __post_init__(self):
        index: dict[str, list[int]] = {}
        for i, s in enumerate(self.snippets):
            index.setdefault(s.patient_id, []).append(i)
        self.by_patient = {p: tuple(v) for p, v in index.items()}

    def patient_ids(self) -> list[str]:
        return sorted(self.by_patient)

    def patient_snippets(self, patient_id: str) -> list[Snippet]:
        if patient_id not in self.by_patient:
            raise UnknownPatientError(f"no snippets for patient {patient_id!r}")
        return [self.snippets[i] for i in self.by_patient[patient_id]]

    def __len__(self) -> int:
        return len(self.snippets)


@dataclass(frozen=True)
class PatientProfile:
    patient_id: str
    base_rates: dict[TraitId, float]  # clamped to [eps, 1-eps]
    ground_truth: frozenset[TraitId]  # traits with raw rate > 0


def read_object(line_no: int, raw: str) -> dict:
    """One JSON-lines line, which must hold a JSON object."""
    try:
        obj = parse_json(raw)
    except json.JSONDecodeError as e:
        raise BankSchemaError(line_no, f"invalid JSON ({e.msg})") from None
    if not isinstance(obj, dict):
        raise BankSchemaError(line_no, "expected a JSON object")
    return obj


def require_text(line_no: int, obj: dict, key: str) -> str:
    """The line's value under `key`, which must be a string that is not blank."""
    value = obj.get(key)
    if not isinstance(value, str) or not value.strip():
        raise BankSchemaError(line_no, f"{key} must be non-empty text")
    return value


def _id_text(line_no: int, obj: dict, key: str) -> str:
    """The line's id under `key`: a string, or an integer turned into one."""
    value = obj[key]
    if type(value) not in (str, int):  # exact types: a boolean is no id
        raise BankSchemaError(line_no, f"{key} must be a string or an integer, got {value!r}")
    return str(value)


def _trait_set(line_no: int, names) -> frozenset[TraitId]:
    """The line's `traits`, which must be a list of trait ids."""
    if type(names) is list:
        try:
            return frozenset([TRAIT_BY_NAME[name] for name in names])
        except (KeyError, TypeError):  # a name that is no trait id, or one that is a list or an object
            pass
    raise BankSchemaError(line_no, f"traits must be a list of trait ids F1..F10, got {names!r}")


_fields = itemgetter(*REQUIRED_FIELDS)


def ingest(path: str | Path) -> SnippetBank:
    """Load and validate a JSON-lines snippet bank.

    Raises BankSchemaError naming the first offending line; an empty file
    yields an empty bank carrying a warning.

    A line's first fault is the one named, in this order: bad JSON, a value
    that is no object, a missing field (the first in `REQUIRED_FIELDS`
    order), `scenario_id`, `patient_id`'s type, a '/' or U+0000 in it,
    `doctor_curr`, `patient_reply`, `session_id`, `traits`. Values are
    checked inline with exact types (a parsed JSON value is never a
    subclass); `_id_text` and `require_text` are called only to turn an
    integer id into text or to word a fault. Equal trait lists share one
    frozenset.
    """
    snippets = []
    trait_sets: dict[tuple, frozenset[TraitId]] = {}  # tuple(names) -> its set, for this call only
    for line_no, raw in numbered_lines(path):
        obj = read_object(line_no, raw)
        try:
            patient_id, session_id, scenario_id, doctor_curr, patient_reply, traits = _fields(obj)
        except KeyError:
            missing = next(f for f in REQUIRED_FIELDS if f not in obj)
            raise BankSchemaError(line_no, f"missing field {missing!r}") from None
        if type(scenario_id) is not int or not 1 <= scenario_id <= 15:
            raise BankSchemaError(line_no, f"scenario_id out of range 1..15: {scenario_id!r}")
        if type(patient_id) is not str:
            patient_id = _id_text(line_no, obj, "patient_id")
        if "/" in patient_id or "\0" in patient_id:  # it ends an episode log's file name
            raise BankSchemaError(line_no, f"patient_id must not hold '/' or U+0000, got {patient_id!r}")
        if type(doctor_curr) is not str or not doctor_curr.strip():
            require_text(line_no, obj, "doctor_curr")  # raises
        if type(patient_reply) is not str or not patient_reply.strip():
            require_text(line_no, obj, "patient_reply")  # raises
        if type(session_id) is not str:
            session_id = _id_text(line_no, obj, "session_id")
        try:
            trait_set = trait_sets.get(tuple(traits)) if type(traits) is list else None
        except TypeError:  # an entry that is a list or an object: no key
            trait_set = None
        if trait_set is None:
            trait_set = trait_sets[tuple(traits)] = _trait_set(line_no, traits)  # raises on a bad list
        snippets.append(Snippet(patient_id, session_id, scenario_id, doctor_curr, patient_reply, trait_set))
    warnings = () if snippets else ("bank is empty",)
    return SnippetBank(snippets=tuple(snippets), warnings=warnings)


def write_bank(bank: SnippetBank, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in bank.snippets:
            fh.write(json.dumps(s.to_dict(), sort_keys=True) + "\n")


def trait_frequencies(trait_sets: Iterable[frozenset[TraitId]]) -> dict[TraitId, float]:
    """Each trait's share of the given trait sets that hold it."""
    sets = list(trait_sets)
    counts = Counter(t for traits in sets for t in traits)
    return {t: counts[t] / len(sets) for t in ALL_TRAITS}


def base_rates(bank: SnippetBank, patient_id: str) -> PatientProfile:
    """Per-trait empirical emission rates for one patient.

    Raw rate is the fraction of the patient's snippets annotated with the
    trait; rates are clamped to [1e-3, 1-1e-3], ground truth is the set of
    traits with raw rate > 0.
    """
    raw = trait_frequencies(s.traits for s in bank.patient_snippets(patient_id))
    return PatientProfile(
        patient_id=patient_id,
        base_rates={t: min(max(r, THETA_EPS), 1.0 - THETA_EPS) for t, r in raw.items()},
        ground_truth=frozenset(t for t, r in raw.items() if r > 0),
    )


@dataclass(frozen=True)
class SynthSpec:
    n_patients: int
    snippets_per_patient: int

    def __post_init__(self):
        if self.n_patients < 1 or self.snippets_per_patient < 1:
            raise InputError("n_patients and snippets_per_patient must be >= 1")


_QUESTION_TEMPLATES = [
    "Can you tell me about {topic}?",
    "What was the last time you dealt with {topic} like for you?",
    "How do you usually handle {topic} during the week?",
    "What comes to mind first when someone brings up {topic}?",
    "Could you describe {topic} the way you would to a friend?",
    "What happened the most recent time {topic} came up?",
]

_REPLY_TEMPLATES = [
    "Well I was thinking about {topic} just the other day and it took most of the afternoon.",
    "It depends on the day but usually {topic} goes fine and then I move on to something else.",
    "I remember one time with {topic} where everything went sideways and we had to start over.",
    "Mostly I keep to a routine so {topic} does not change much from week to week.",
    "My brother asked me about {topic} once and I did not really know what to tell him.",
    "There was a stretch last year when {topic} was all I could think about honestly.",
]

_TOPIC_WORDS = [
    "school", "my job", "the weekend", "dinner plans", "the bus ride",
    "my neighbors", "video games", "the holidays", "grocery shopping", "my old town",
]


def weave_markers(skeleton: str, markers: list[str], rng: random.Random) -> str:
    """Insert each marker phrase mid-sentence at a seeded position."""
    words = skeleton.split()
    for marker in markers:
        pos = rng.randrange(1, len(words) + 1) if words else 0
        words.insert(pos, marker + ",")
    return " ".join(words)


def synthesize_bank(spec: SynthSpec, seed: int, ontology: Ontology | None = None) -> SnippetBank:
    """Deterministically generate a synthetic snippet bank.

    Each patient receives a random profile of 1-10 active traits; replies are
    template sentences with the active traits' marker phrases woven in, so the
    rule-based detector recovers each snippet's annotations exactly.
    """
    ont = ontology or default_ontology()
    profile_rng = random.Random(seed)
    rng = random.Random(seed)

    snippets: list[Snippet] = []
    for p in range(spec.n_patients):
        patient_id = f"P{p + 1:03d}"
        n_active = profile_rng.randint(1, 10)
        active = sorted(profile_rng.sample(ALL_TRAITS, n_active))
        # per-trait propensity: how often an active trait shows up in this patient's turns
        propensity = {t: profile_rng.uniform(0.15, 0.6) for t in active}

        dialogic_ids = [s.id for s in ont.dialogic_scenarios()]
        patient_turn_traits: list[list[TraitId]] = []
        for i in range(spec.snippets_per_patient):
            drawn = [t for t in active if rng.random() < propensity[t]]
            if len(drawn) > 2:
                drawn = sorted(rng.sample(drawn, 2))
            patient_turn_traits.append(drawn)
        # ground truth must be non-empty: force one active trait into the first turn
        if not any(patient_turn_traits):
            patient_turn_traits[0] = [rng.choice(active)]

        for i, turn_traits in enumerate(patient_turn_traits):
            topic = rng.choice(_TOPIC_WORDS)
            question = rng.choice(_QUESTION_TEMPLATES).format(topic=topic)
            skeleton = rng.choice(_REPLY_TEMPLATES).format(topic=topic)
            markers = [rng.choice(ont.traits[t].marker_lexicon) for t in sorted(turn_traits)]
            reply = weave_markers(skeleton, markers, rng)
            snippets.append(
                Snippet(
                    patient_id=patient_id,
                    session_id=f"S{(i // 11) + 1}",
                    scenario_id=dialogic_ids[i % len(dialogic_ids)],
                    doctor_curr=question,
                    patient_reply=reply,
                    traits=frozenset(turn_traits),
                )
            )
    return SnippetBank(snippets=tuple(snippets))
