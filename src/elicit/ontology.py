"""Fixed clinical vocabulary: traits, questioning strategies, scenario catalogue, score scale.

Everything here is immutable reference data loaded from a versioned JSON file.
It is safe to share one Ontology instance across any number of concurrent
episode runners.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import lru_cache
from importlib import resources
from pathlib import Path


class OntologyError(ValueError):
    """Raised when ontology data fails validation."""


class UnknownTraitError(KeyError):
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


@dataclass(frozen=True)
class A4ScoreLevel:
    score: int
    description: str


NON_DIALOGIC_IDS = frozenset({1, 2, 8, 10})


@dataclass(frozen=True)
class Ontology:
    """Validated, immutable clinical vocabulary."""

    version: str
    traits: dict[TraitId, TraitDefinition]
    strategies: dict[Strategy, StrategyProfile]
    scenarios: tuple[Scenario, ...]
    score_levels: tuple[A4ScoreLevel, ...]

    def trait_by_id(self, trait_id: str | TraitId) -> TraitDefinition:
        """Look up a trait definition by id; total over F1..F10, error otherwise."""
        if isinstance(trait_id, TraitId):
            return self.traits[trait_id]
        return self.traits[TraitId.parse(trait_id)]

    def dialogic_scenarios(self) -> tuple[Scenario, ...]:
        """The eleven dialogue-based scenarios, ordered by id."""
        return tuple(s for s in self.scenarios if s.dialogic)

    def strategy_affinity(self, strategy: Strategy) -> frozenset[TraitId]:
        return self.strategies[strategy].affinity

    def strategy_display_name(self, strategy: Strategy) -> str:
        return self.strategies[strategy].display_name


def _word_boundary_contains(haystack: str, needle: str) -> bool:
    return re.search(rf"\b{re.escape(needle)}\b", haystack, re.IGNORECASE) is not None


def _validate(ont: Ontology) -> None:
    if len(ont.traits) != 10:
        raise OntologyError(f"expected 10 traits, got {len(ont.traits)}")
    if len(ont.strategies) != 6:
        raise OntologyError(f"expected 6 strategies, got {len(ont.strategies)}")
    if len(ont.scenarios) != 15:
        raise OntologyError(f"expected 15 scenarios, got {len(ont.scenarios)}")
    if len(ont.score_levels) != 4:
        raise OntologyError(f"expected 4 score levels, got {len(ont.score_levels)}")

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

    # Markers must be usable by the rule detector without cross-trait ambiguity:
    # no phrase may be shared with, or word-boundary-contained in, another trait's phrase.
    for a in ont.traits.values():
        for pa in a.marker_lexicon:
            for b in ont.traits.values():
                if a.id == b.id:
                    continue
                for pb in b.marker_lexicon:
                    if pa.lower() == pb.lower():
                        raise OntologyError(f"marker {pa!r} owned by both {a.id} and {b.id}")
                    if _word_boundary_contains(pb, pa):
                        raise OntologyError(
                            f"marker {pa!r} ({a.id}) is contained in {pb!r} ({b.id})"
                        )

    for p in ont.strategies.values():
        if not p.affinity:
            raise OntologyError(f"{p.strategy}: affinity set must be non-empty")


def load_ontology(path: str | Path | None = None) -> Ontology:
    """Load and validate the ontology from `path`, or the embedded data file."""
    if path is None:
        raw = resources.files("elicit").joinpath("data/ontology.json").read_text("utf-8")
    else:
        raw = Path(path).read_text("utf-8")
    doc = json.loads(raw)

    traits: dict[TraitId, TraitDefinition] = {}
    for entry in doc["traits"]:
        tid = TraitId.parse(entry["id"])
        traits[tid] = TraitDefinition(
            id=tid,
            name=entry["name"],
            definition=entry["definition"],
            marker_lexicon=tuple(entry["markers"]),
        )

    strategies: dict[Strategy, StrategyProfile] = {}
    for entry in doc["strategies"]:
        strat = Strategy(entry["id"])
        strategies[strat] = StrategyProfile(
            strategy=strat,
            display_name=entry["display_name"],
            description=entry["description"],
            affinity=frozenset(TraitId.parse(t) for t in entry["affinity"]),
        )

    scenarios = tuple(
        Scenario(id=e["id"], name=e["name"], dialogic=e["dialogic"]) for e in doc["scenarios"]
    )
    levels = tuple(
        A4ScoreLevel(score=e["score"], description=e["description"]) for e in doc["score_levels"]
    )

    ont = Ontology(
        version=doc["version"],
        traits=traits,
        strategies=strategies,
        scenarios=scenarios,
        score_levels=levels,
    )
    _validate(ont)
    return ont


@lru_cache(maxsize=1)
def default_ontology() -> Ontology:
    return load_ontology()
