"""Patient agent: probabilistic trait emission plus language realisation.

Emission: each trait is included independently with probability
sigma(logit(theta) - M*[confirmed] + offset), where theta is the patient's
clamped base rate, M suppresses traits the doctor has already confirmed, and
offset carries the asked strategy's affinity boost (0 by default). At most
`max_traits_per_turn` traits survive; overflow keeps the highest-probability
ones.

Realisation: the template realiser is the deterministic twin of the
generation-backed realiser. It strips every known marker phrase out of the
anchor reply to get a neutral skeleton, then weaves exactly one marker per
emitted trait back in, so the rule detector recovers the emitted set exactly.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .bank import THETA_EPS, PatientProfile, Snippet, weave_markers
from .dialogue import HistoryTurn, render_history
from .errors import BackendError, InputError
from .ontology import ALL_TRAITS, Ontology, TraitId
from .prompting import complete_parsed, load_prompt

DEFAULT_SUPPRESSION = 4.0  # sigma(-4) ~ 1.8%: rare re-emission of confirmed traits


class EmptyAnchorError(ValueError):
    pass


class RealiserError(BackendError):
    """The generation backend returned an empty reply twice in a row."""


@dataclass(frozen=True)
class EmissionParams:
    M: float = DEFAULT_SUPPRESSION
    max_traits_per_turn: int = 2
    strategy_gain: float = 0.0  # logit boost for traits in the asked strategy's affinity (off by default)

    def __post_init__(self):
        for name in ("M", "strategy_gain"):
            if not math.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite, got {getattr(self, name)}")
        if self.M <= 0:
            raise InputError("suppression penalty M must be > 0")
        if self.max_traits_per_turn < 1:
            raise InputError("max_traits_per_turn must be >= 1")


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def emission_probability(theta: float, confirmed: bool, params: EmissionParams, offset: float) -> float:
    if not THETA_EPS <= theta <= 1.0 - THETA_EPS:
        raise ValueError(f"theta must be clamped to [{THETA_EPS}, {1 - THETA_EPS}]")
    if not confirmed and offset == 0.0:
        return theta  # sigma(logit(x)) == x
    logit = math.log(theta / (1.0 - theta))
    if confirmed:
        logit -= params.M
    return _sigmoid(logit + offset)


def emit_traits(
    profile: PatientProfile,
    confirmed: Iterable[TraitId],
    params: EmissionParams,
    rng: random.Random,
    logit_offsets: Mapping[TraitId, float],
) -> frozenset[TraitId]:
    """Sample the traits this reply will express, one `rng` draw per trait in trait order.

    Reads only profile.base_rates; a trait missing from `logit_offsets` has offset 0.
    """
    confirmed_set = frozenset(confirmed)
    probabilities = [
        emission_probability(profile.base_rates[t], t in confirmed_set, params, logit_offsets.get(t, 0.0))
        for t in ALL_TRAITS
    ]
    sampled = [t for t, q in zip(ALL_TRAITS, probabilities) if rng.random() < q]
    if len(sampled) > params.max_traits_per_turn:
        sampled.sort(key=lambda t: (-probabilities[t - 1], int(t)))
        sampled = sampled[: params.max_traits_per_turn]
    return frozenset(sampled)


_FALLBACK_SKELETON = "Well I suppose it depends but I can try to say a little about that."
_WS_RE = re.compile(r"\s+")
_DANGLING_PUNCT_RE = re.compile(r"\s+([,.;!?])")


class TemplateRealiser:
    """Deterministic realiser; the exact-inverse partner of the rule detector.

    Each anchor reply's skeleton is stripped once and remembered by the reply
    text. The memo is filled on first use, is bounded by the bank's distinct
    replies, and lives and dies with the realiser (and so with its `Components`).
    """

    def __init__(self, ontology: Ontology):
        self.ontology = ontology
        self._any_marker = self.ontology.markers
        self._skeletons: dict[str, str] = {}

    def _skeleton(self, text: str) -> str:
        # strip to a fixpoint: deleting one phrase may butt words together into another
        for _ in range(10):
            if not self._any_marker.search(text):
                break
            text = self._any_marker.sub(" ", text)
            text = _DANGLING_PUNCT_RE.sub(r"\1", _WS_RE.sub(" ", text)).strip()
        else:
            return _FALLBACK_SKELETON
        return text if text.strip(" ,.;!?") else _FALLBACK_SKELETON

    def realise(
        self,
        question: str,
        history: Sequence[HistoryTurn],
        anchor: Snippet,
        emitted: Iterable[TraitId],
        seed: int,
    ) -> str:
        if not question.strip():
            raise ValueError("question must be non-empty")
        if not anchor.patient_reply.strip():
            raise EmptyAnchorError("anchor reply is empty")
        skeleton = self._skeletons.get(anchor.patient_reply)
        if skeleton is None:
            skeleton = self._skeletons[anchor.patient_reply] = self._skeleton(anchor.patient_reply)
        traits = sorted(set(emitted))
        rng = random.Random(seed) if traits else None  # seeded only when a marker is woven in
        # drawn as the weave takes each marker, so the draws go marker, position, marker, position
        markers = (rng.choice(self.ontology.traits[t].marker_lexicon) for t in traits)
        return weave_markers(skeleton, markers, rng)


def _non_empty(reply: str) -> str:
    reply = reply.strip()
    if not reply:
        raise ValueError("reply is empty")
    return reply


class LlmRealiser:
    """Generation-backed realiser sharing the template twin's interface; a blank reply is asked for once more."""

    def __init__(self, client, ontology: Ontology, *, temperature: float, prompt_dir: str | None):
        self.client = client
        self.ontology = ontology
        self.temperature = temperature
        self._template = load_prompt("realise", prompt_dir)

    def realise(
        self,
        question: str,
        history: Sequence[HistoryTurn],
        anchor: Snippet,
        emitted: Iterable[TraitId],
        seed: int,
    ) -> str:
        if not question.strip():
            raise ValueError("question must be non-empty")
        if not anchor.patient_reply.strip():
            raise EmptyAnchorError("anchor reply is empty")
        emitted_sorted = sorted(set(emitted))
        if emitted_sorted:
            emitted_text = "\n".join(
                f"- {self.ontology.traits[t].name}: {self.ontology.traits[t].definition}"
                for t in emitted_sorted
            )
        else:
            emitted_text = "(none)"
        prompt = self._template.format(
            history=render_history(history),
            question=question,
            anchor=anchor.patient_reply,
            emitted=emitted_text,
        )
        return complete_parsed(self.client, prompt, self.temperature, _non_empty, RealiserError)
