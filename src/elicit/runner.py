"""Episode orchestration: the per-turn doctor/patient/detector/belief loop.

Three conditions share the harness. `run_episode` is the one entry point for
the questioning loop in both of its modes: planned questioning ("tpa") and a
uniform random-strategy baseline ("random"). `run_replay` feeds an existing
transcript through the detector and belief tracker only. The patient's side of
a turn (anchor retrieval, trait emission, realisation, detection) is
`patient_turn`, which leave-one-out fidelity runs too. Ground-truth trait
labels are copied out of the profile once at episode entry and used only for
coverage bookkeeping; no doctor-side component ever receives an object
carrying them.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Sequence, get_args, get_origin, get_type_hints

from . import belief as belief_mod
from . import logjson
from .backends import BackendError
from .bank import PatientProfile, Snippet, SnippetBank, base_rates
from .belief import BeliefState
from .detector import DetectionResult, DetectorParseError, EmptyResponseError, RuleDetector
from .dialogue import HistoryTurn
from .ontology import Ontology, Scenario, Strategy, STRATEGY_ORDER, TraitId, default_ontology
from .patient import EmissionParams, TemplateRealiser, emit_traits
from .retrieval import AnchorRetriever, EmptyCandidateSetError, FallbackEncoder, cosine
from .selector import HeuristicSelector, SelectorError, SessionContext, Thought

logger = logging.getLogger(__name__)

REPLAY_STRATEGY = "replay"

_ABORTABLE = (BackendError, SelectorError, DetectorParseError, EmptyCandidateSetError, EmptyResponseError)


class LogFormatError(ValueError):
    """An episode log file that does not parse into an EpisodeLog."""


@dataclass(frozen=True)
class EpisodeConfig:
    max_turns: int = 20
    tau: float = belief_mod.DEFAULT_TAU
    seed: int = 0
    selector_kind: str = "heuristic"
    realiser_kind: str = "template"
    detector_kind: str = "rule"
    encoder_kind: str = "fallback"
    clinical_background: str = ""
    emission: EmissionParams = field(default_factory=EmissionParams)
    selector_temperature: float = 0.7
    realiser_temperature: float = 0.7
    prompt_dir: str | None = None

    def __post_init__(self):
        if self.max_turns < 1:
            raise ValueError("max_turns must be >= 1")
        if not 0.0 <= self.tau < 1.0:  # also false for nan
            raise ValueError(f"tau must be in [0, 1), got {self.tau}")


@dataclass
class Components:
    """Shared, read-only collaborators for a batch of episodes."""

    ontology: Ontology
    selector: object
    realiser: object
    detector: object
    retriever: AnchorRetriever | None
    encoder: object
    _definition_embeddings: dict[TraitId, object] = field(default_factory=dict, repr=False)

    def definition_embedding(self, trait: TraitId):
        if trait not in self._definition_embeddings:
            self._definition_embeddings[trait] = self.encoder.encode(
                self.ontology.traits[trait].definition
            )
        return self._definition_embeddings[trait]


def build_components(
    cfg: EpisodeConfig,
    bank: SnippetBank | None,
    ontology: Ontology | None = None,
    client=None,
) -> Components:
    """Wire the component stack named by the config kinds.

    The deterministic kinds need no client; the llm kinds and the remote
    encoder require one.
    """
    ont = ontology or default_ontology()
    if cfg.encoder_kind == "fallback":
        encoder = FallbackEncoder()
    elif cfg.encoder_kind == "remote":
        from .retrieval import RemoteEncoder

        if client is None:
            raise ValueError("encoder kind 'remote' needs a backend client")
        encoder = RemoteEncoder(client)
    else:
        raise ValueError(f"unknown encoder kind {cfg.encoder_kind!r}")

    if cfg.selector_kind == "heuristic":
        selector = HeuristicSelector()
    elif cfg.selector_kind == "llm":
        from .selector import LlmSelector

        selector = LlmSelector(
            client, ask_temperature=cfg.selector_temperature, prompt_dir=cfg.prompt_dir
        )
    else:
        raise ValueError(f"unknown selector kind {cfg.selector_kind!r}")

    if cfg.realiser_kind == "template":
        realiser = TemplateRealiser(ont)
    elif cfg.realiser_kind == "llm":
        from .patient import LlmRealiser

        realiser = LlmRealiser(
            client, ont, temperature=cfg.realiser_temperature, prompt_dir=cfg.prompt_dir
        )
    else:
        raise ValueError(f"unknown realiser kind {cfg.realiser_kind!r}")

    if cfg.detector_kind == "rule":
        detector = RuleDetector(ont)
    elif cfg.detector_kind == "llm":
        from .detector import LlmDetector

        detector = LlmDetector(client, ont)
    else:
        raise ValueError(f"unknown detector kind {cfg.detector_kind!r}")

    retriever = AnchorRetriever(bank, encoder) if bank is not None and len(bank) else None
    return Components(
        ontology=ont,
        selector=selector,
        realiser=realiser,
        detector=detector,
        retriever=retriever,
        encoder=encoder,
    )


@functools.cache
def _json_types(cls: type) -> dict[str, tuple[type, ...]]:
    """Each field's JSON types, from its annotation: a frozenset or tuple is a list, a float may be an int."""
    types = {}
    for name, hint in get_type_hints(cls).items():
        allowed = (list,) if get_origin(hint) in (frozenset, tuple) else get_args(hint) or (hint,)
        types[name] = allowed + (int,) if float in allowed else allowed
    return types


def _typed(cls: type, d) -> dict:
    """Return `d` once every field of `cls` that it holds has a value of that field's JSON type."""
    if not isinstance(d, dict):
        raise LogFormatError(f"expected a JSON object, got {type(d).__name__}")
    types = _json_types(cls)
    for key, value in d.items():
        # exact types, as json.loads makes them: true is a bool, never an int
        if key in types and type(value) not in types[key]:
            raise LogFormatError(f"{key} must be {' or '.join(t.__name__ for t in types[key])}, got {value!r}")
    return d


@dataclass(frozen=True)
class TurnRecord:
    turn: int
    strategy: str  # strategy id or "replay"
    question: str
    response: str
    detections: dict
    coverage_after: float
    belief_snapshot: dict
    thought: dict | None = None
    topic_id: int | None = None
    anchor_patient_id: str | None = None
    anchor_session_id: str | None = None
    anchor_score: float | None = None

    def to_dict(self) -> dict:
        return dict(vars(self))  # one key per field, as from_dict reads them

    @classmethod
    def from_dict(cls, d: dict) -> "TurnRecord":
        return cls(**_typed(cls, d))


@dataclass(frozen=True)
class EpisodeLog:
    episode_id: str
    patient_id: str
    mode: str
    seed: int
    max_turns: int
    tau: float
    ground_truth: frozenset[TraitId]
    turns: tuple[TurnRecord, ...]
    final_confirmed: frozenset[TraitId]
    aborted: bool = False
    abort_reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "episode_id": self.episode_id,
            "patient_id": self.patient_id,
            "mode": self.mode,
            "seed": self.seed,
            "max_turns": self.max_turns,
            "tau": self.tau,
            "ground_truth": [t.name for t in sorted(self.ground_truth)],
            "turns": [t.to_dict() for t in self.turns],
            "final_confirmed": [t.name for t in sorted(self.final_confirmed)],
            "aborted": self.aborted,
            "abort_reason": self.abort_reason,
        }

    def to_json(self) -> str:
        return logjson.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "EpisodeLog":
        _typed(cls, d)
        return cls(
            episode_id=d["episode_id"],
            patient_id=d["patient_id"],
            mode=d["mode"],
            seed=d["seed"],
            max_turns=d["max_turns"],
            tau=d["tau"],
            ground_truth=frozenset(TraitId.parse(t) for t in d["ground_truth"]),
            turns=tuple(TurnRecord.from_dict(t) for t in d["turns"]),
            final_confirmed=frozenset(TraitId.parse(t) for t in d["final_confirmed"]),
            aborted=d.get("aborted", False),
            abort_reason=d.get("abort_reason"),
        )

    @classmethod
    def from_json(cls, text: str) -> "EpisodeLog":
        return cls.from_dict(json.loads(text))


def derive_seed(run_seed: int, episode_id: str) -> int:
    """Stable per-episode seed so parallel and serial runs agree."""
    digest = hashlib.sha256(f"{run_seed}:{episode_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def plan_topics(scenarios: Sequence[Scenario], seed: int, n_turns: int) -> list[Scenario]:
    """Seeded shuffle of the dialogic scenarios, cycled to cover n_turns."""
    dialogic = [s for s in scenarios if s.dialogic]
    if not dialogic:
        raise ValueError("need at least one dialogic scenario")
    order = list(dialogic)
    random.Random(seed).shuffle(order)
    return [order[i % len(order)] for i in range(n_turns)]


def _emission_offsets(
    components: Components,
    params: EmissionParams,
    strategy: Strategy | None,
    question: str,
) -> dict[TraitId, float] | None:
    offsets: dict[TraitId, float] = {}
    if params.strategy_gain and strategy is not None:
        for t in components.ontology.strategy_affinity(strategy):
            offsets[t] = offsets.get(t, 0.0) + params.strategy_gain
    if params.affinity_weight:
        q_emb = components.encoder.encode(question)
        for t in components.ontology.traits:
            sim = cosine(q_emb, components.definition_embedding(t))
            offsets[t] = offsets.get(t, 0.0) + params.affinity_weight * sim
    return offsets or None


def patient_turn(
    components: Components,
    params: EmissionParams,
    profile: PatientProfile,
    confirmed: Iterable[TraitId],
    history: Sequence[HistoryTurn],
    rng: random.Random,
    strategy: Strategy,
    question: str,
) -> tuple[Snippet, float, str, DetectionResult]:
    """The patient's side of one turn: anchor retrieval, trait emission, realisation, detection.

    The anchor never comes from the profile's own patient. `rng` is drawn by
    emission first, then once for the realiser's seed.
    """
    anchor, score = components.retriever.retrieve(question, profile.patient_id)
    offsets = _emission_offsets(components, params, strategy, question)
    decision = emit_traits(profile, confirmed, params, rng, offsets)
    response = components.realiser.realise(
        question, history, anchor, decision.emitted, seed=rng.randrange(2**31)
    )
    return anchor, score, response, components.detector.detect(question, response)


def _record(
    turns: list[TurnRecord],
    state: BeliefState,
    gt: frozenset[TraitId],
    strategy: str,
    question: str,
    response: str,
    detections: DetectionResult,
    **context,
) -> BeliefState:
    """Fold one turn's detections into the belief and append its record; returns the new belief."""
    state = belief_mod.update(state, detections.labels)
    turns.append(
        TurnRecord(
            turn=len(turns) + 1,
            strategy=strategy,
            question=question,
            response=response,
            detections=detections.to_dict(),
            coverage_after=len(state.confirmed & gt) / len(gt),
            belief_snapshot=state.to_dict(),
            **context,
        )
    )
    return state


def _episode_log(
    cfg: EpisodeConfig,
    episode_id: str,
    patient_id: str,
    mode: str,
    gt: frozenset[TraitId],
    turns: list[TurnRecord],
    state: BeliefState,
    abort_reason: str | None = None,
) -> EpisodeLog:
    return EpisodeLog(
        episode_id=episode_id,
        patient_id=patient_id,
        mode=mode,
        seed=cfg.seed,
        max_turns=cfg.max_turns,
        tau=cfg.tau,
        ground_truth=gt,
        turns=tuple(turns),
        final_confirmed=state.confirmed,
        aborted=abort_reason is not None,
        abort_reason=abort_reason,
    )


_NEUTRAL_THOUGHT = Thought(
    confirmed_analysis="",
    priority_traits=(),
    elicitation_conditions="Ask a natural, friendly question about the current topic.",
    strategy_rationale="",
)


def run_episode(
    cfg: EpisodeConfig,
    bank: SnippetBank,
    profile: PatientProfile,
    components: Components | None = None,
    episode_id: str = "episode-0",
    ground_truth: frozenset[TraitId] | None = None,
    mode: str = "tpa",
) -> EpisodeLog | None:
    """Run one episode of the questioning loop; returns None for empty ground truth.

    Mode "tpa" plans every question from the belief (think, plan, ask). Mode
    "random" is the uniform-strategy baseline: it draws each strategy at random
    and asks with a neutral thought, so its turns log no thought. Ground-truth
    labels are copied out of the profile here, once, for coverage bookkeeping.
    """
    if mode not in ("tpa", "random"):
        raise ValueError(f"unknown loop mode {mode!r}")
    gt = frozenset(ground_truth) if ground_truth is not None else frozenset(profile.ground_truth)
    if not gt:
        logger.warning("skipping %s: patient %s has empty ground truth", episode_id, profile.patient_id)
        return None
    comps = components or build_components(cfg, bank)
    if comps.retriever is None:
        raise EmptyCandidateSetError("no bank snippets available for anchor retrieval")
    rng = random.Random(cfg.seed)
    topics = plan_topics(comps.ontology.dialogic_scenarios(), cfg.seed, cfg.max_turns)
    state = BeliefState.fresh(tau=cfg.tau)
    history: list[HistoryTurn] = []
    turns: list[TurnRecord] = []
    abort_reason = None

    for topic in topics:
        ctx = SessionContext(
            clinical_background=cfg.clinical_background,
            history=history,
            belief=state,
            topic=topic,
            ontology=comps.ontology,
        )
        try:
            if mode == "random":
                thought = None
                strategy = STRATEGY_ORDER[rng.randrange(len(STRATEGY_ORDER))]
                question = comps.selector.ask(ctx, _NEUTRAL_THOUGHT, strategy)
            else:
                thought = comps.selector.think(ctx)
                strategy = comps.selector.plan(ctx, thought)
                question = comps.selector.ask(ctx, thought, strategy)
            anchor, score, response, detections = patient_turn(
                comps, cfg.emission, profile, state.confirmed, history, rng, strategy, question
            )
        except _ABORTABLE as e:
            abort_reason = f"{type(e).__name__}: {e}"
            logger.warning("episode %s aborted at turn %d: %s", episode_id, len(turns) + 1, abort_reason)
            break

        state = _record(
            turns, state, gt, strategy.value, question, response, detections,
            thought=thought.to_dict() if thought is not None else None,
            topic_id=topic.id,
            anchor_patient_id=anchor.patient_id,
            anchor_session_id=anchor.session_id,
            anchor_score=score,
        )
        history.append(HistoryTurn(question, response, dict(detections.labels)))

    return _episode_log(cfg, episode_id, profile.patient_id, mode, gt, turns, state, abort_reason)


# perfbench traces `run_random` by name, so the old entry point stays as an alias
run_random = functools.partial(run_episode, mode="random")


def run_replay(
    transcript: Sequence[tuple[str, str]],
    ground_truth: frozenset[TraitId],
    cfg: EpisodeConfig,
    components: Components | None = None,
    episode_id: str = "replay-0",
    patient_id: str = "replayed",
) -> EpisodeLog:
    """Feed an existing transcript through the detector and belief tracker only."""
    if not transcript:
        raise ValueError("transcript must be non-empty")
    comps = components or build_components(cfg, bank=None)
    gt = frozenset(ground_truth)
    state = BeliefState.fresh(tau=cfg.tau)
    turns: list[TurnRecord] = []
    for question, response in transcript[: cfg.max_turns]:
        detections = comps.detector.detect(question, response)
        state = _record(turns, state, gt, REPLAY_STRATEGY, question, response, detections)
    return _episode_log(cfg, episode_id, patient_id, "replay", gt, turns, state)


def replay_transcript_for_patient(bank: SnippetBank, patient_id: str) -> list[tuple[str, str]]:
    """A patient's real exchanges in bank order, as replay input."""
    return [(s.doctor_curr, s.patient_reply) for s in bank.patient_snippets(patient_id)]


@dataclass(frozen=True)
class BatchResult:
    logs: tuple[EpisodeLog, ...]
    skipped: tuple[str, ...]


def run_batch(
    cfg: EpisodeConfig,
    bank: SnippetBank,
    mode: str,
    n_episodes: int,
    parallel: int = 1,
    components: Components | None = None,
) -> BatchResult:
    """Run a batch of episodes round-robin over the bank's patients.

    Per-episode seeds are derived from (run seed, episode id), so parallel and
    serial execution produce identical logs.
    """
    if mode not in ("tpa", "random", "replay"):
        raise ValueError(f"unknown mode {mode!r}")
    comps = components or build_components(cfg, bank)
    patients = bank.patient_ids()
    if not patients:
        raise ValueError("bank has no patients")

    # replay runs each patient's one transcript at most once; 0 means every patient
    count = min(n_episodes or len(patients), len(patients)) if mode == "replay" else n_episodes
    jobs: list[tuple[str, str]] = []  # (episode_id, patient_id)
    for i in range(count):
        pid = patients[i % len(patients)]
        jobs.append((f"{mode}-{i:04d}-{pid}", pid))
    profiles = {pid: base_rates(bank, pid) for pid in {pid for _, pid in jobs}}

    def one(job: tuple[str, str]) -> EpisodeLog | None:
        episode_id, pid = job
        ecfg = replace(cfg, seed=derive_seed(cfg.seed, episode_id))
        if mode != "replay":
            return run_episode(ecfg, bank, profiles[pid], comps, episode_id, mode=mode)
        transcript = replay_transcript_for_patient(bank, pid)
        gt = frozenset(profiles[pid].ground_truth)
        if not transcript or not gt:
            return None
        return run_replay(transcript, gt, ecfg, comps, episode_id, patient_id=pid)

    if parallel > 1:
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(one, jobs))
    else:
        results = [one(j) for j in jobs]

    logs = tuple(log for log in results if log is not None)
    skipped = tuple(job[0] for job, log in zip(jobs, results) if log is None)
    return BatchResult(logs=logs, skipped=skipped)


def write_logs(result: BatchResult, out_dir: str | Path) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for log in sorted(result.logs, key=lambda l: l.episode_id):
        p = out / f"{log.episode_id}.json"
        p.write_text(log.to_json() + "\n", encoding="utf-8")
        paths.append(p)
    return paths


def read_logs(log_dir: str | Path) -> list[EpisodeLog]:
    out = []
    for p in sorted(Path(log_dir).glob("*.json")):
        if p.name == "manifest.json":
            continue
        try:
            out.append(EpisodeLog.from_json(p.read_text("utf-8")))
        except (KeyError, TypeError, ValueError) as e:
            raise LogFormatError(f"{p}: {type(e).__name__}: {e}") from e
    return out
