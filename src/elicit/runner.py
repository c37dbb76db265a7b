"""Episode orchestration: the per-turn doctor/patient/detector/belief loop.

Three conditions share the harness. `run_episode` is the one entry point for
the questioning loop in both of its modes: planned questioning ("tpa") and a
uniform random-strategy baseline ("random"). `run_replay` feeds an existing
transcript through the detector and belief tracker only. The patient's side of
a turn (anchor retrieval, trait emission, realisation, detection) is
`patient_turn`, which leave-one-out fidelity runs too. Ground-truth trait
labels are copied out of the profile once at episode entry and only written
into the log, for `evaluate` to score; no doctor-side component ever receives
an object carrying them.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from . import belief as belief_mod
from .bank import PatientProfile, Snippet, SnippetBank, base_rates
from .belief import BeliefState
from .config import KINDS, EpisodeConfig
from .detector import DetectionResult, build_detector
from .dialogue import HistoryTurn
from .episode_log import BatchResult, EpisodeLog, TurnRecord, write_logs  # write_logs: perfbench patches it here
from .errors import BackendError
from .ontology import Ontology, Scenario, Strategy, STRATEGY_ORDER, TraitId, default_ontology
from .patient import EmissionParams, LlmRealiser, TemplateRealiser, emit_traits
from .retrieval import AnchorRetriever, EmptyCandidateSetError, FallbackEncoder, RemoteEncoder, cosine
from .selector import HeuristicSelector, LlmSelector, SessionContext, Thought

logger = logging.getLogger(__name__)

REPLAY_STRATEGY = "replay"


@dataclass
class Components:
    """Shared collaborators for a batch of episodes, read-only but for their memos.

    The retriever's answers and text vectors and the realiser's skeletons
    are each filled on first use and live and die with this object, so
    every `build_components` starts them empty.
    The threads of a `run_batch` whose kinds wait on a backend share them with
    no lock: a memo only gains entries or is emptied, and an entry is a pure
    function of its key, so threads that race on one only compute it twice
    (and a retriever memo may pass its cap by an entry per thread until its
    next miss).
    """

    ontology: Ontology
    selector: object
    realiser: object
    detector: object
    retriever: AnchorRetriever | None


def _backend_roles(cfg: EpisodeConfig) -> list[str]:
    """The roles whose configured kind waits on a backend client, in `KINDS` order."""
    return [role for role, (_, networked) in KINDS.items() if getattr(cfg, f"{role}_kind") == networked]


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
    if client is None and (roles := _backend_roles(cfg)):
        raise ValueError(f"{roles[0]} kind {KINDS[roles[0]][1]!r} needs a backend client")
    encoder = RemoteEncoder(client) if cfg.encoder_kind == "remote" else FallbackEncoder()
    if cfg.selector_kind == "llm":
        selector = LlmSelector(client, ont, ask_temperature=cfg.selector_temperature, prompt_dir=cfg.prompt_dir)
    else:
        selector = HeuristicSelector(ont)
    if cfg.realiser_kind == "llm":
        realiser = LlmRealiser(client, ont, temperature=cfg.realiser_temperature, prompt_dir=cfg.prompt_dir)
    else:
        realiser = TemplateRealiser(ont)
    detector = build_detector(cfg.detector_kind, client, ont, cfg.prompt_dir)
    retriever = AnchorRetriever(bank, encoder) if bank is not None and len(bank) else None
    return Components(
        ontology=ont,
        selector=selector,
        realiser=realiser,
        detector=detector,
        retriever=retriever,
    )


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
) -> dict[TraitId, float]:
    offsets: dict[TraitId, float] = {}
    if params.strategy_gain and strategy is not None:
        for t in components.ontology.strategies[strategy].affinity:
            offsets[t] = offsets.get(t, 0.0) + params.strategy_gain
    if params.affinity_weight:
        q_emb = components.retriever.encode(question)
        for t, trait in components.ontology.traits.items():
            sim = cosine(q_emb, components.retriever.encode(trait.definition))
            offsets[t] = offsets.get(t, 0.0) + params.affinity_weight * sim
    return offsets


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
    emitted = emit_traits(profile, confirmed, params, rng, offsets)
    response = components.realiser.realise(question, history, anchor, emitted, seed=rng.randrange(2**31))
    return anchor, score, response, components.detector.detect(question, response)


def _record(
    turns: list[TurnRecord],
    state: BeliefState,
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
            confirmed=[t.name for t in sorted(state.confirmed)],
            **context,
        )
    )
    return state


def _abort_reason(episode_id: str, turn: int, e: Exception) -> str:
    reason = f"{type(e).__name__}: {e}"
    logger.warning("episode %s aborted at turn %d: %s", episode_id, turn, reason)
    return reason


def _episode_log(
    cfg: EpisodeConfig,
    episode_id: str,
    patient_id: str,
    mode: str,
    gt: frozenset[TraitId],
    turns: list[TurnRecord],
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
        aborted=abort_reason is not None,
        abort_reason=abort_reason,
    )


_NEUTRAL_THOUGHT = Thought(
    confirmed_analysis="",
    priority_traits=(),
    elicitation_conditions="Ask a natural, friendly question about the current topic.",
    strategy_rationale="",
)


def random_question(components: Components, ctx: SessionContext, rng: random.Random) -> tuple[Strategy, str]:
    """A uniformly drawn strategy and the selector's question for it, asked with a neutral thought."""
    strategy = STRATEGY_ORDER[rng.randrange(len(STRATEGY_ORDER))]
    return strategy, components.selector.ask(ctx, _NEUTRAL_THOUGHT, strategy)


def run_episode(
    cfg: EpisodeConfig,
    bank: SnippetBank,
    profile: PatientProfile,
    components: Components | None = None,
    episode_id: str = "episode-0",
    mode: str = "tpa",
) -> EpisodeLog | None:
    """Run one episode of the questioning loop; returns None for empty ground truth.

    Mode "tpa" plans every question from the belief (think, plan, ask). Mode
    "random" is the uniform-strategy baseline: it draws each strategy at random
    and asks with a neutral thought, so its turns log no thought. Ground-truth
    labels are copied out of the profile here, once, for the log. A
    `BackendError` met in a turn ends the episode as aborted; any other error
    is raised.
    """
    if mode not in ("tpa", "random"):
        raise ValueError(f"unknown loop mode {mode!r}")
    gt = frozenset(profile.ground_truth)
    if not gt:
        logger.warning("skipping %s: patient %s has empty ground truth", episode_id, profile.patient_id)
        return None
    comps = components or build_components(cfg, bank)
    if comps.retriever is None:
        raise EmptyCandidateSetError("no bank snippets available for anchor retrieval")
    rng = random.Random(cfg.seed)
    topics = plan_topics(comps.ontology.dialogic_scenarios(), cfg.seed, cfg.max_turns)
    state = BeliefState(tau=cfg.tau)
    history: list[HistoryTurn] = []
    turns: list[TurnRecord] = []
    abort_reason = None

    for topic in topics:
        ctx = SessionContext(history=history, belief=state, topic=topic)
        try:
            if mode == "random":
                thought = None
                strategy, question = random_question(comps, ctx, rng)
            else:
                thought = comps.selector.think(ctx)
                strategy = comps.selector.plan(ctx, thought)
                question = comps.selector.ask(ctx, thought, strategy)
            anchor, score, response, detections = patient_turn(
                comps, cfg.emission, profile, state.confirmed, history, rng, strategy, question
            )
        except BackendError as e:
            abort_reason = _abort_reason(episode_id, len(turns) + 1, e)
            break

        state = _record(
            turns, state, strategy.value, question, response, detections,
            thought=thought.to_dict() if thought is not None else None,
            topic_id=topic.id,
            anchor_patient_id=anchor.patient_id,
            anchor_session_id=anchor.session_id,
            anchor_score=score,
        )
        history.append(HistoryTurn(question, response))

    return _episode_log(cfg, episode_id, profile.patient_id, mode, gt, turns, abort_reason)


# perfbench traces `run_random` by name, so the old entry point stays as an alias
run_random = functools.partial(run_episode, mode="random")


def run_replay(
    transcript: Sequence[tuple[str, str]],
    ground_truth: frozenset[TraitId],
    cfg: EpisodeConfig,
    detector,
    episode_id: str = "replay-0",
    patient_id: str = "replayed",
) -> EpisodeLog:
    """Feed an existing transcript through `detector` and the belief tracker only; it aborts as `run_episode` does."""
    if not transcript:
        raise ValueError("transcript must be non-empty")
    gt = frozenset(ground_truth)
    state = BeliefState(tau=cfg.tau)
    turns: list[TurnRecord] = []
    abort_reason = None
    for question, response in transcript[: cfg.max_turns]:
        try:
            detections = detector.detect(question, response)
        except BackendError as e:
            abort_reason = _abort_reason(episode_id, len(turns) + 1, e)
            break
        state = _record(turns, state, REPLAY_STRATEGY, question, response, detections)
    return _episode_log(cfg, episode_id, patient_id, "replay", gt, turns, abort_reason)


def replay_transcript_for_patient(bank: SnippetBank, patient_id: str) -> list[tuple[str, str]]:
    """A patient's real exchanges in bank order, as replay input."""
    return [(s.doctor_curr, s.patient_reply) for s in bank.patient_snippets(patient_id)]


def run_batch(
    cfg: EpisodeConfig,
    bank: SnippetBank,
    mode: str,
    n_episodes: int,
    parallel: int = 1,
    *,
    components: Components,
) -> BatchResult:
    """Run a batch of episodes round-robin over the bank's patients.

    Per-episode seeds are derived from (run seed, episode id), so parallel and
    serial execution produce identical logs. `parallel` bounds the episodes in
    flight on a thread pool only when a kind waits on a backend; with every
    kind deterministic the jobs run on the calling thread, since under the GIL
    threads only add switching to CPU-bound turns.
    """
    if mode not in ("tpa", "random", "replay"):
        raise ValueError(f"unknown mode {mode!r}")
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
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
            return run_episode(ecfg, bank, profiles[pid], components, episode_id, mode=mode)
        transcript = replay_transcript_for_patient(bank, pid)
        gt = frozenset(profiles[pid].ground_truth)
        if not transcript or not gt:
            return None
        return run_replay(transcript, gt, ecfg, components.detector, episode_id, patient_id=pid)

    if parallel > 1 and _backend_roles(cfg):
        with ThreadPoolExecutor(max_workers=parallel) as pool:
            results = list(pool.map(one, jobs))
    else:
        results = [one(j) for j in jobs]

    logs = tuple(log for log in results if log is not None)
    skipped = tuple(job[0] for job, log in zip(jobs, results) if log is None)
    return BatchResult(logs=logs, skipped=skipped)
