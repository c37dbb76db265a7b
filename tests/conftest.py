import pytest

from elicit.backends import ScriptExhaustedError
from elicit.bank import SnippetBank, Snippet, SynthSpec, synthesize_bank
from elicit.metrics import EpisodeMetrics, aggregate
from elicit.ontology import TraitId, default_ontology
from elicit.retrieval import FallbackEncoder


@pytest.fixture(scope="session")
def ontology():
    return default_ontology()


@pytest.fixture(scope="session")
def synth_bank():
    return synthesize_bank(SynthSpec(n_patients=4, snippets_per_patient=8), seed=42)


def make_snippet(
    patient_id="P001",
    session_id="S1",
    scenario_id=3,
    doctor_curr="Can you tell me about your day?",
    patient_reply="It was a long day but it went fine overall.",
    traits=(),
):
    return Snippet(
        patient_id=patient_id,
        session_id=session_id,
        scenario_id=scenario_id,
        doctor_curr=doctor_curr,
        patient_reply=patient_reply,
        traits=frozenset(TraitId.parse(t) if isinstance(t, str) else t for t in traits),
    )


@pytest.fixture
def tiny_bank():
    return SnippetBank(
        snippets=(
            make_snippet("P001", doctor_curr="Tell me about school."),
            make_snippet("P001", doctor_curr="What do you do on weekends?"),
            make_snippet("P002", doctor_curr="Tell me about your job."),
            make_snippet("P002", doctor_curr="How was the trip?"),
            make_snippet("P003", doctor_curr="Tell me about school."),
        )
    )


class CountingEncoder(FallbackEncoder):
    """The fallback encoder, recording every text it is asked to encode, one at a time or in a batch.

    `texts` holds every text in order; `batches` holds each `encode_many` call's texts.
    """

    def __init__(self):
        super().__init__()
        self.texts = []
        self.batches = []

    def encode(self, text):
        self.texts.append(text)
        return super().encode(text)

    def encode_many(self, texts):
        self.texts.extend(texts)
        self.batches.append(list(texts))
        return super().encode_many(texts)


class ScriptedBackend:
    """Deterministic generation twin: serves canned completions from an ordered
    queue, consumed once; exhaustion is an error, never a silent recycle."""

    def __init__(self, script: list[str]):
        self._queue = list(script)
        self.requests: list[tuple[str, float]] = []  # (prompt, temperature) per call

    def complete(self, prompt: str, temperature: float) -> str:
        self.requests.append((prompt, temperature))
        if not self._queue:
            raise ScriptExhaustedError("scripted completions exhausted")
        return self._queue.pop(0)


def episode_metrics(log) -> EpisodeMetrics:
    """One log's metrics, as `aggregate` scores it, aborted or not."""
    return aggregate([log], include_aborted=True).episodes[0]
