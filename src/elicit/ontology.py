"""Fixed clinical vocabulary: traits, questioning strategies, scenario catalogue.

Everything here is immutable reference data loaded from a versioned JSON file.
It is safe to share one Ontology instance across any number of concurrent
episode runners.

Validation leaves no two traits whose marker phrases can match at one position
of a text, so one pattern (`Ontology.markers`) serves the rule detector's scan.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property, lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable

from .errors import InputError, parse_json, read_text


class OntologyError(InputError):
    """Raised when ontology data fails validation."""


class UnknownTraitError(InputError):
    """Raised when a trait id does not parse as F1..F10."""


class TraitId(IntEnum):
    """The ten social-language trait identifiers, totally ordered by index."""

    F1 = 1
    F2 = 2
    F3 = 3
    F4 = 4
    F5 = 5
    F6 = 6
    F7 = 7
    F8 = 8
    F9 = 9
    F10 = 10

    @classmethod
    def parse(cls, text: str) -> "TraitId":
        try:
            return cls[text]
        except KeyError:
            raise UnknownTraitError(f"unknown trait id: {text!r}") from None

    def __str__(self) -> str:
        return self.name


ALL_TRAITS: tuple[TraitId, ...] = tuple(TraitId)
TRAIT_NAMES: tuple[str, ...] = tuple(t.name for t in ALL_TRAITS)  # each TraitId.name is a descriptor call
TRAIT_BY_NAME: dict[str, TraitId] = dict(zip(TRAIT_NAMES, ALL_TRAITS))


class Strategy(Enum):
    """The six questioning strategies, in fixed tie-break order."""

    OPEN_ENDED = "open_ended"
    EMOTION_ORIENTED = "emotion_oriented"
    HYPOTHETICAL = "hypothetical"
    MULTI_STEP = "multi_step"
    PERSPECTIVE_TAKING = "perspective_taking"
    CORRECTION_INDUCING = "correction_inducing"


STRATEGY_ORDER: tuple[Strategy, ...] = tuple(Strategy)


@dataclass(frozen=True)
class TraitDefinition:
    id: TraitId
    name: str
    definition: str
    marker_lexicon: tuple[str, ...]  # literal phrases; disjoint across traits


@dataclass(frozen=True)
class StrategyProfile:
    strategy: Strategy
    display_name: str
    description: str
    affinity: frozenset[TraitId]


@dataclass(frozen=True)
class Scenario:
    id: int
    name: str
    dialogic: bool


NON_DIALOGIC_IDS = frozenset({1, 2, 8, 10})


@dataclass(frozen=True)
class Ontology:
    """Validated, immutable clinical vocabulary."""

    version: str
    traits: dict[TraitId, TraitDefinition]
    strategies: dict[Strategy, StrategyProfile]
    scenarios: tuple[Scenario, ...]

    def dialogic_scenarios(self) -> tuple[Scenario, ...]:
        """The eleven dialogue-based scenarios, ordered by id."""
        return tuple(s for s in self.scenarios if s.dialogic)

    @cached_property
    def markers(self) -> re.Pattern:
        """Every trait's phrases in one marker-grammar pattern; a match's `lastgroup` names its trait."""
        lexicons = [self.traits[t].marker_lexicon for t in ALL_TRAITS]
        groups = (f"(?P<{t.name}>{_alternatives(lex)})" for t, lex in zip(ALL_TRAITS, lexicons))
        return _whole_words("|".join(groups), [p for lex in lexicons for p in lex])


def _alternatives(phrases: Iterable[str]) -> str:
    return "|".join(re.escape(p) for p in phrases)


def _whole_words(alternatives: str, phrases: list[str]) -> re.Pattern:
    # The lookahead on the phrases' first characters matches nothing new; it lets
    # a scan skip word starts where no phrase begins without trying every phrase.
    firsts = "".join(sorted({re.escape(p[0]) for p in phrases})) if all(phrases) else ""
    head = f"(?=[{firsts}])" if firsts else ""
    return re.compile(rf"\b{head}(?:{alternatives})\b", re.IGNORECASE)


def marker_regex(phrases: Iterable[str]) -> re.Pattern:
    """The one marker grammar: any of `phrases` matched as whole words, ignoring case."""
    phrases = list(phrases)
    return _whole_words(_alternatives(phrases), phrases)


_WORD_EDGED = re.compile(r"\w(?:.*\w)?", re.DOTALL)  # the grammar's \b can bracket the phrase


def _validate(ont: Ontology) -> None:
    if len(ont.traits) != 10:
        raise OntologyError(f"expected 10 traits, got {len(ont.traits)}")
    if len(ont.strategies) != 6:
        raise OntologyError(f"expected 6 strategies, got {len(ont.strategies)}")
    if len(ont.scenarios) != 15:
        raise OntologyError(f"expected 15 scenarios, got {len(ont.scenarios)}")
    seen: set[int] = set()  # fifteen distinct ids in 1..15: the ids a bank's scenario_id may take
    for i, s in enumerate(ont.scenarios):
        if not 1 <= s.id <= 15 or s.id in seen:
            problem = "a duplicate" if s.id in seen else "not in 1..15"
            raise OntologyError(f"scenarios[{i}]: scenario id {s.id} is {problem}")
        seen.add(s.id)

    dialogic = ont.dialogic_scenarios()
    if len(dialogic) != 11:
        raise OntologyError(f"expected 11 dialogic scenarios, got {len(dialogic)}")
    non_dialogic = {s.id for s in ont.scenarios if not s.dialogic}
    if non_dialogic != NON_DIALOGIC_IDS:
        raise OntologyError(f"non-dialogic scenario ids must be {sorted(NON_DIALOGIC_IDS)}")

    for t in ont.traits.values():
        if not t.name or not t.definition:
            raise OntologyError(f"{t.id}: name and definition must be non-empty")
        if not t.marker_lexicon:
            raise OntologyError(f"{t.id}: marker lexicon must be non-empty")
        for phrase in t.marker_lexicon:
            if not _WORD_EDGED.fullmatch(phrase):
                raise OntologyError(f"{t.id}: marker {phrase!r} must begin and end with a word character")

    # No phrase may equal another trait's ignoring case, or sit inside one as whole words:
    # then no two traits match at one position, which the rule detector's one scan needs.
    for a in ont.traits.values():
        for pa in a.marker_lexicon:
            for b in ont.traits.values():
                if a.id == b.id:
                    continue
                for pb in b.marker_lexicon:
                    if pa.lower() == pb.lower():
                        raise OntologyError(f"marker {pa!r} owned by both {a.id} and {b.id}")
                    if marker_regex([pa]).search(pb):
                        raise OntologyError(
                            f"marker {pa!r} ({a.id}) is contained in {pb!r} ({b.id})"
                        )

    for p in ont.strategies.values():
        if not p.affinity:
            raise OntologyError(f"{p.strategy}: affinity set must be non-empty")


def _get(entry, where: str, key: str, kind: type):
    """entry[key], which must be of exactly JSON type `kind`: "3" is no integer and "false" no boolean."""
    if not isinstance(entry, dict):
        raise OntologyError(f"{where}: expected a JSON object")
    if key not in entry:
        raise OntologyError(f"{where}: missing key {key!r}")
    value = entry[key]
    if type(value) is not kind:
        raise OntologyError(f"{where}: {key!r} must be {kind.__name__}, got {value!r}")
    return value


def _strings(entry, where: str, key: str) -> list[str]:
    values = _get(entry, where, key, list)
    if not all(type(v) is str for v in values):
        raise OntologyError(f"{where}: {key!r} must be a list of strings, got {values!r}")
    return values


def _trait_id(where: str, text: str) -> TraitId:
    try:
        return TraitId.parse(text)
    except UnknownTraitError:
        raise OntologyError(f"{where}: unknown trait id {text!r}") from None


def load_ontology(path: str | Path | None = None) -> Ontology:
    """Load and validate the ontology from `path`, or the embedded data file.

    Raises OntologyError naming the entry and the key of the first value that
    is missing or of the wrong JSON type, or naming the file if it is not JSON.
    """
    if path is None:
        raw = resources.files("elicit").joinpath("data/ontology.json").read_text("utf-8")
    else:
        raw = read_text(path)
    try:
        doc = parse_json(raw)
    except json.JSONDecodeError as e:
        raise OntologyError(f"{path}: invalid JSON ({e})") from None

    traits: dict[TraitId, TraitDefinition] = {}
    for i, entry in enumerate(_get(doc, "ontology", "traits", list)):
        where = f"traits[{i}]"
        tid = _trait_id(where, _get(entry, where, "id", str))
        traits[tid] = TraitDefinition(
            id=tid,
            name=_get(entry, where, "name", str),
            definition=_get(entry, where, "definition", str),
            marker_lexicon=tuple(_strings(entry, where, "markers")),
        )

    strategies: dict[Strategy, StrategyProfile] = {}
    for i, entry in enumerate(_get(doc, "ontology", "strategies", list)):
        where = f"strategies[{i}]"
        sid = _get(entry, where, "id", str)
        try:
            strat = Strategy(sid)
        except ValueError:
            raise OntologyError(f"{where}: unknown strategy id {sid!r}") from None
        strategies[strat] = StrategyProfile(
            strategy=strat,
            display_name=_get(entry, where, "display_name", str),
            description=_get(entry, where, "description", str),
            affinity=frozenset(_trait_id(where, t) for t in _strings(entry, where, "affinity")),
        )

    scenarios: list[Scenario] = []
    for i, entry in enumerate(_get(doc, "ontology", "scenarios", list)):
        where = f"scenarios[{i}]"
        scenarios.append(Scenario(
            id=_get(entry, where, "id", int),
            name=_get(entry, where, "name", str),
            dialogic=_get(entry, where, "dialogic", bool),
        ))

    ont = Ontology(
        version=_get(doc, "ontology", "version", str),
        traits=traits,
        strategies=strategies,
        scenarios=tuple(scenarios),
    )
    _validate(ont)
    return ont


@lru_cache(maxsize=1)
def default_ontology() -> Ontology:
    return load_ontology()
