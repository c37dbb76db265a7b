"""Trait detection over patient responses.

Two interchangeable backends: a deterministic lexical detector that matches
each trait's marker phrases (word-boundary, case-insensitive, no stemming:
markers are verbatim exemplars and fuzziness would break the realiser
round-trip), and a zero-shot generation-backed detector that classifies the
response against the full trait definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .backends import GenerationRequest, Message
from .errors import BackendError
from .ontology import ALL_TRAITS, Ontology, TraitId, default_ontology, marker_regex
from .prompting import complete_json, load_prompt


class EmptyResponseError(ValueError):
    pass


class DetectorParseError(BackendError):
    """The generation backend returned unusable labels twice in a row."""


_LABEL_KEYS = dict.fromkeys((t.name for t in ALL_TRAITS), bool)


@dataclass(frozen=True)
class DetectionResult:
    labels: Mapping[TraitId, bool]
    evidence: Mapping[TraitId, str]  # spans only for traits labelled true

    def positive(self) -> frozenset[TraitId]:
        return frozenset(t for t, v in self.labels.items() if v)

    def to_dict(self) -> dict:
        return {
            "labels": {t.name: bool(self.labels[t]) for t in ALL_TRAITS},
            "evidence": {t.name: s for t, s in sorted(self.evidence.items())},
        }


class RuleDetector:
    """Lexical detector: trait is present iff any of its marker phrases occurs."""

    def __init__(self, ontology: Ontology | None = None):
        self.ontology = ontology or default_ontology()
        self._patterns = {t: marker_regex(d.marker_lexicon) for t, d in self.ontology.traits.items()}

    def detect(self, question: str, response: str) -> DetectionResult:
        if not response.strip():
            raise EmptyResponseError("response must be non-empty")
        labels: dict[TraitId, bool] = {}
        evidence: dict[TraitId, str] = {}
        for t in ALL_TRAITS:
            m = self._patterns[t].search(response)
            labels[t] = m is not None
            if m is not None:
                evidence[t] = m.group(0)
        return DetectionResult(labels=labels, evidence=evidence)


class LlmDetector:
    """Zero-shot detector: dialogue context plus trait definitions, JSON labels out."""

    def __init__(self, client, ontology: Ontology | None = None, prompt_dir=None):
        self.client = client
        self.ontology = ontology or default_ontology()
        self._template = load_prompt("detect", prompt_dir)

    def _request(self, question: str, response: str) -> GenerationRequest:
        definitions = "\n".join(
            f"{t.name}: {d.name}. {d.definition}" for t, d in sorted(self.ontology.traits.items())
        )
        prompt = self._template.format(
            definitions=definitions, question=question, response=response
        )
        return GenerationRequest(messages=(Message("user", prompt),), temperature=0.0)

    def detect(self, question: str, response: str) -> DetectionResult:
        if not response.strip():
            raise EmptyResponseError("response must be non-empty")
        return complete_json(
            self.client,
            self._request(question, response),
            _LABEL_KEYS,
            lambda doc: DetectionResult(labels={t: doc[t.name] for t in ALL_TRAITS}, evidence={}),
            DetectorParseError,
        )
