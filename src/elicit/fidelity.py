"""Patient-agent validation: trait-frequency alignment and semantic similarity.

Leave-one-out protocol: for each held-out patient, replies are simulated with
anchors retrieved only from the other patients' records, then compared to the
held-out patient's real data. Each simulated reply is one `runner.patient_turn`
on the default component stack and emitter, with no doctor loop: no history and
no confirmed traits. Frequency alignment is scored with KL divergence
over the smoothed, normalised trait distribution, mean absolute per-trait
frequency error, and a pairwise AUC asking whether the emission model scores
the patient's genuinely active traits above the inactive ones; that score is
the clamped base rate, the emission probability of an unconfirmed trait with
no offset. Semantic similarity pairs each simulated turn with the held-out
patient's real snippet whose doctor question is nearest to the simulated
question by exact cosine under the fallback encoder; a tie goes to the
patient's first such snippet. The turn scores the cosine of the simulated and
the real reply. The real questions' vectors are the retriever's index rows,
and each fold encodes its distinct replies in one batch and drops them when
it ends, so memory does not grow with the number of folds.

The folds are independent once the components are built, so a long run maps
them over contiguous chunks of patients on forked processes (`fanout`), each
a copy-on-write image of the built components. Memos are per process; no
output byte depends on the number of processes.

Conventions the source material leaves open, fixed here: KL smoothing adds
1e-6 to every trait mass before normalising; frequency error is the mean
absolute per-trait difference of unnormalised frequencies.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from itertools import chain
from typing import Mapping

from . import fanout
from .bank import PatientProfile, SnippetBank, base_rates, trait_frequencies
from .belief import MAX_TURNS, BeliefState
from .config import EpisodeConfig
from .errors import InputError
from .metrics import ci95_halfwidth, exact_mean, exact_stdev
from .ontology import ALL_TRAITS, Ontology, Strategy, TraitId
from .patient import EmissionParams, emit_traits  # emit_traits is unused here; perfbench traces it by name
from .retrieval import AnchorRetriever, cosine
from .runner import Components, build_components, derive_seed, patient_turn, plan_topics, random_question
from .selector import SessionContext

KL_SMOOTHING = 1e-6
MIN_PATIENTS_PER_TRAIT = 4  # traits with fewer positive patients are left out of the overall AUC
# simulated turns per process below which a forked child costs more than it
# saves: one fork, pipe and reap took ~3 ms and a turn ~80 us on a 2-vCPU
# host, but with each process's memos cold and copy-on-write faults on both
# sides, two processes first won at 400 turns (10 folds of 40) and tied at
# 320 (BENCH_32.json)
MIN_TURNS_PER_PROCESS = 200

THRESHOLDS = {
    "kl_max": 1.0,
    "freq_error_max": 0.15,
    "auc_min": 0.70,
    "semantic_min": 0.40,
}


class InsufficientPatientsError(InputError):
    pass


def kl_divergence(real: Mapping[TraitId, float], sim: Mapping[TraitId, float]) -> float:
    """KL(real || sim) over smoothed, renormalised trait distributions."""
    keys = sorted(set(real) | set(sim))
    p = [real.get(k, 0.0) + KL_SMOOTHING for k in keys]
    q = [sim.get(k, 0.0) + KL_SMOOTHING for k in keys]
    ps = sum(p)
    qs = sum(q)
    return sum((pi / ps) * math.log((pi / ps) / (qi / qs)) for pi, qi in zip(p, q))


def frequency_error(real: Mapping[TraitId, float], sim: Mapping[TraitId, float]) -> float:
    """Mean absolute per-trait difference of unnormalised frequencies."""
    keys = sorted(set(real) | set(sim))
    return sum(abs(real.get(k, 0.0) - sim.get(k, 0.0)) for k in keys) / len(keys)


def trait_auc(scores: Mapping[str, float], labels: Mapping[str, bool]) -> float | None:
    """Exact pairwise probability that a positive outscores a negative (ties 0.5).

    None when either class is empty: the value is undefined, and the caller's
    aggregation policy decides what to exclude.
    """
    pos = [scores[k] for k, v in labels.items() if v]
    neg = [scores[k] for k, v in labels.items() if not v]
    if not pos or not neg:
        return None
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


@dataclass(frozen=True)
class SummaryStat:
    mean: float
    sd: float
    median: float
    ci95: float
    n: int

    @classmethod
    def of(cls, values: list[float]) -> "SummaryStat":
        n = len(values)
        return cls(
            mean=exact_mean(values),
            sd=exact_stdev(values) if n >= 2 else 0.0,
            median=statistics.median(values),
            ci95=ci95_halfwidth(values),
            n=n,
        )


@dataclass(frozen=True)
class FidelityConfig:
    episodes_per_patient: int = 2
    turns: int = EpisodeConfig.max_turns
    seed: int = EpisodeConfig.seed

    def __post_init__(self):
        if self.episodes_per_patient < 1:
            raise InputError("episodes_per_patient must be >= 1")
        if not 1 <= self.turns <= MAX_TURNS:
            raise InputError(f"turns must be in 1..{MAX_TURNS}, got {self.turns}")


@dataclass(frozen=True)
class FidelityReport:
    n_patients: int
    kl: SummaryStat
    freq_error: SummaryStat
    semantic_similarity: SummaryStat
    auc_overall: float | None
    per_trait_auc: dict[str, dict]
    thresholds_met: dict[str, bool]
    # strategy-conditioned detection frequencies, pooled over all folds; the
    # default emitter has no strategy hook, so they differ only by sampling noise
    strategy_breakdown: dict[str, dict[str, float]]

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "kl": vars(self.kl),
            "freq_error": vars(self.freq_error),
            "semantic_similarity": vars(self.semantic_similarity),
        }


def _simulate_patient(
    bank: SnippetBank,  # unused; perfbench's tracer reads patient_id as the second argument
    patient_id: str,
    cfg: FidelityConfig,
    components: Components,
    profile: PatientProfile,
) -> list[tuple[Strategy, str, str, frozenset[TraitId]]]:
    """Simulate replies for one held-out patient; anchors never come from them.

    Returns (strategy, question, reply, detected traits) for each simulated
    turn. Questions are the random baseline's: a uniform strategy, asked by
    the selector with a neutral thought, so they pass its vocabulary check.
    An anchor from the held-out patient raises AssertionError.
    """
    params = EmissionParams()
    belief = BeliefState()
    turns = []
    for k in range(cfg.episodes_per_patient):
        ep_seed = derive_seed(cfg.seed, f"fidelity-{patient_id}-{k}")
        rng = random.Random(ep_seed)
        for topic in plan_topics(components.ontology.dialogic_scenarios(), ep_seed, cfg.turns):
            ctx = SessionContext(history=[], belief=belief, topic=topic)
            strategy, question = random_question(components, ctx, rng)
            anchor, _, reply, result = patient_turn(components, params, profile, (), [], rng, strategy, question)
            if anchor.patient_id == patient_id:
                raise AssertionError(f"retrieval leaked an anchor from held-out {patient_id}")
            turns.append((strategy, question, reply, result.positive()))
    return turns


def _semantic_similarity(
    retriever: AnchorRetriever,
    patient_id: str,
    sim_pairs: list[tuple[str, str]],
) -> float:
    """Mean cosine between each simulated reply and the real reply whose question is nearest.

    The real questions' vectors are the retriever's index rows, and the
    simulated questions' come from `retriever.encode`'s memo. The fold's
    distinct simulated and real replies are encoded in one batch and dropped
    on return, so the retriever's memo holds no reply.
    """
    real = retriever.bank.patient_snippets(patient_id)
    questions = list(dict.fromkeys(q for q, _ in sim_pairs))
    picks = retriever.nearest(retriever.bank.by_patient[patient_id], [retriever.encode(q) for q in questions])
    nearest = dict(zip(questions, picks))
    pairs = [(r_sim, real[nearest[q_sim]].patient_reply) for q_sim, r_sim in sim_pairs]
    texts = list(dict.fromkeys(chain.from_iterable(pairs)))
    replies = dict(zip(texts, retriever.encoder.encode_many(texts)))
    return exact_mean(cosine(replies[r_sim], replies[r_real]) for r_sim, r_real in pairs)


def loo_validate(
    bank: SnippetBank,
    cfg: FidelityConfig,
    ontology: Ontology | None = None,
) -> FidelityReport:
    """Leave-one-out validation of the patient agent against its source bank.

    The components and profiles are built once. The folds then run on the
    smallest of: the usable CPUs, the patients, and the simulated turns over
    `MIN_TURNS_PER_PROCESS`; the calling process takes the first chunk of
    patients and one forked child each further chunk. The results are folded
    in patient order, so the report is the serial one. The first fold to
    fail, in patient order, raises its error, and no child is left running.
    """
    patients = bank.patient_ids()
    if len(patients) < 2:
        raise InsufficientPatientsError("leave-one-out needs at least 2 patients")
    components = build_components(EpisodeConfig(), bank, ontology)
    profiles = {pid: base_rates(bank, pid) for pid in patients}

    def fold(pid: str) -> tuple[float, float, float, list[tuple[str, frozenset[TraitId]]]]:
        turns = _simulate_patient(bank, pid, cfg, components, profiles[pid])
        real = trait_frequencies(s.traits for s in bank.patient_snippets(pid))
        simulated = trait_frequencies(detected for _, _, _, detected in turns)
        sim = _semantic_similarity(components.retriever, pid, [(q, r) for _, q, r, _ in turns])
        detections = [(strategy.value, detected) for strategy, _, _, detected in turns]
        return kl_divergence(real, simulated), frequency_error(real, simulated), sim, detections

    n_turns = len(patients) * cfg.episodes_per_patient * cfg.turns
    processes = min(fanout.usable_cpus(), n_turns // MIN_TURNS_PER_PROCESS)
    kls, ferrs, sims, detections = map(list, zip(*fanout.fan_out(fold, patients, processes)))
    detected_by_strategy: dict[str, list[frozenset[TraitId]]] = {}
    for label, detected in chain.from_iterable(detections):
        detected_by_strategy.setdefault(label, []).append(detected)

    per_trait: dict[str, dict] = {}
    included: list[float] = []
    for t in ALL_TRAITS:
        labels = {pid: t in p.ground_truth for pid, p in profiles.items()}
        auc = trait_auc({pid: p.base_rates[t] for pid, p in profiles.items()}, labels)
        n_pos = sum(labels.values())
        per_trait[t.name] = {"auc": auc, "n_patients": n_pos}
        if auc is not None and n_pos >= MIN_PATIENTS_PER_TRAIT:
            included.append(auc)
    auc_overall = exact_mean(included) if included else None

    kl_stat = SummaryStat.of(kls)
    ferr_stat = SummaryStat.of(ferrs)
    sim_stat = SummaryStat.of(sims)
    thresholds_met = {
        "kl_divergence": kl_stat.mean < THRESHOLDS["kl_max"],
        "frequency_error": ferr_stat.mean < THRESHOLDS["freq_error_max"],
        "auc": auc_overall is not None and auc_overall > THRESHOLDS["auc_min"],
        "semantic_similarity": sim_stat.mean >= THRESHOLDS["semantic_min"],
    }
    breakdown = {
        label: {t.name: f for t, f in trait_frequencies(detected).items()}
        for label, detected in sorted(detected_by_strategy.items())
    }
    return FidelityReport(
        n_patients=len(patients),
        kl=kl_stat,
        freq_error=ferr_stat,
        semantic_similarity=sim_stat,
        auc_overall=auc_overall,
        per_trait_auc=per_trait,
        thresholds_met=thresholds_met,
        strategy_breakdown=breakdown,
    )
