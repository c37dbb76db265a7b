"""Trait detection over patient responses.

Two interchangeable backends: a deterministic lexical detector that matches
each trait's marker phrases (word-boundary, case-insensitive, no stemming:
markers are verbatim exemplars and fuzziness would break the realiser
round-trip), and a zero-shot generation-backed detector that classifies the
response against the full trait definitions.

The lexical detector finds every trait's markers in one scan of the response
with the ontology's union pattern, and each trait's evidence is still its
leftmost match. A scan steps over whatever starts inside a match; where
another trait's phrase can start there (the ontology's overlap table, empty
for the embedded vocabulary), that trait's own pattern is tried at each
position of the match.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Mapping

from .errors import BackendError
from .ontology import ALL_TRAITS, TRAIT_BY_NAME, TRAIT_NAMES, Ontology, TraitId
from .prompting import complete_json, load_prompt


class EmptyResponseError(ValueError):
    pass


class DetectorParseError(BackendError):
    """The generation backend returned unusable labels twice in a row."""


_LABEL_KEYS = dict.fromkeys(TRAIT_NAMES, bool)


@dataclass(frozen=True)
class DetectionResult:
    labels: tuple[bool, ...]  # one per trait, in trait order, like BeliefState.positives
    evidence: Mapping[TraitId, str]  # spans only for traits labelled true

    def positive(self) -> frozenset[TraitId]:
        return frozenset(compress(ALL_TRAITS, self.labels))

    def to_dict(self) -> dict:
        return {
            "labels": dict(zip(TRAIT_NAMES, self.labels)),
            "evidence": {t.name: s for t, s in sorted(self.evidence.items())},
        }


class RuleDetector:
    """Lexical detector: trait is present iff any of its marker phrases occurs."""

    def __init__(self, ontology: Ontology):
        self.ontology = ontology
        self._markers = self.ontology.markers

    def detect(self, question: str, response: str) -> DetectionResult:
        if not response.strip():
            raise EmptyResponseError("response must be non-empty")
        union, patterns, overlaps = self._markers.union, self._markers.patterns, self._markers.overlaps
        evidence: dict[TraitId, str] = {}
        for m in union.finditer(response):
            t = TRAIT_BY_NAME[m.lastgroup]
            evidence.setdefault(t, m.group())
            for u in overlaps[t - 1]:
                if u not in evidence:
                    for pos in range(m.start(), m.end()):
                        hit = patterns[u - 1].match(response, pos)
                        if hit:
                            evidence[u] = hit.group()
                            break
        return DetectionResult(labels=tuple(t in evidence for t in ALL_TRAITS), evidence=evidence)


class LlmDetector:
    """Zero-shot detector: dialogue context plus trait definitions, JSON labels out."""

    def __init__(self, client, ontology: Ontology, *, prompt_dir: str | None):
        self.client = client
        self.ontology = ontology
        self._template = load_prompt("detect", prompt_dir)
        self._definitions = "\n".join(
            f"{t.name}: {d.name}. {d.definition}" for t, d in sorted(self.ontology.traits.items())
        )

    def detect(self, question: str, response: str) -> DetectionResult:
        if not response.strip():
            raise EmptyResponseError("response must be non-empty")
        return complete_json(
            self.client,
            self._template.format(definitions=self._definitions, question=question, response=response),
            0.0,
            _LABEL_KEYS,
            lambda doc: DetectionResult(labels=tuple(doc[n] for n in TRAIT_NAMES), evidence={}),
            DetectorParseError,
        )


def build_detector(kind: str, client, ontology: Ontology, prompt_dir: str | None):
    """The detector of the configured kind: the lexical one, or the zero-shot one on `client`."""
    if kind == "llm":
        return LlmDetector(client, ontology, prompt_dir=prompt_dir)
    return RuleDetector(ontology)
