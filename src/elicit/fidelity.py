"""Patient-agent validation: trait-frequency alignment and semantic similarity.

Leave-one-out protocol: for each held-out patient, replies are simulated with
anchors retrieved only from the other patients' records, then compared to the
held-out patient's real data. Each simulated reply is one `runner.patient_turn`
on the default component stack and emitter, with no doctor loop: no history and
no confirmed traits. Frequency alignment is scored with KL divergence
over the smoothed, normalised trait distribution, mean absolute per-trait
frequency error, and a pairwise AUC asking whether the emission model scores
the patient's genuinely active traits above the inactive ones. Semantic
similarity pairs each simulated reply with the real reply whose doctor
question is nearest under the configured encoder.

Conventions the source material leaves open, fixed here: KL smoothing adds
1e-6 to every trait mass before normalising; frequency error is the mean
absolute per-trait difference of unnormalised frequencies.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from typing import Mapping

from .bank import SnippetBank, base_rates
from .belief import BeliefState
from .metrics import ci95_halfwidth
from .ontology import ALL_TRAITS, Ontology, TraitId
from .patient import emission_probability
from .patient import emit_traits  # unused here; perfbench traces `fidelity.emit_traits` by name
from .retrieval import cosine
from .runner import (
    Components,
    EpisodeConfig,
    build_components,
    derive_seed,
    patient_turn,
    plan_topics,
    random_question,
)
from .selector import SessionContext

KL_SMOOTHING = 1e-6

THRESHOLDS = {
    "kl_max": 1.0,
    "freq_error_max": 0.15,
    "auc_min": 0.70,
    "semantic_min": 0.40,
}


class InsufficientPatientsError(ValueError):
    pass


@dataclass(frozen=True)
class FrequencyProfile:
    patient_id: str
    source: str  # "real" | "simulated"
    frequencies: Mapping[TraitId, float]


def kl_divergence(p_real: FrequencyProfile, p_sim: FrequencyProfile) -> float:
    """KL(real || sim) over smoothed, renormalised trait distributions."""
    keys = sorted(set(p_real.frequencies) | set(p_sim.frequencies))
    p = [p_real.frequencies.get(k, 0.0) + KL_SMOOTHING for k in keys]
    q = [p_sim.frequencies.get(k, 0.0) + KL_SMOOTHING for k in keys]
    ps = sum(p)
    qs = sum(q)
    return sum((pi / ps) * math.log((pi / ps) / (qi / qs)) for pi, qi in zip(p, q))


def frequency_error(p_real: FrequencyProfile, p_sim: FrequencyProfile) -> float:
    """Mean absolute per-trait difference of unnormalised frequencies."""
    keys = sorted(set(p_real.frequencies) | set(p_sim.frequencies))
    return sum(
        abs(p_real.frequencies.get(k, 0.0) - p_sim.frequencies.get(k, 0.0)) for k in keys
    ) / len(keys)


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
        sd = statistics.stdev(values) if n >= 2 else 0.0
        return cls(
            mean=statistics.mean(values),
            sd=sd,
            median=statistics.median(values),
            ci95=ci95_halfwidth(values),
            n=n,
        )

    def to_dict(self) -> dict:
        return {"mean": self.mean, "sd": self.sd, "median": self.median, "ci95": self.ci95, "n": self.n}


@dataclass(frozen=True)
class FidelityConfig:
    episodes_per_patient: int = 2
    turns: int = 20
    seed: int = 0
    min_patients_per_trait: int = 4  # traits with fewer positive patients are left out of the overall AUC

    def __post_init__(self):
        if self.episodes_per_patient < 1:
            raise ValueError("episodes_per_patient must be >= 1")
        if self.turns < 1:
            raise ValueError("turns must be >= 1")


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
            "n_patients": self.n_patients,
            "kl": self.kl.to_dict(),
            "freq_error": self.freq_error.to_dict(),
            "semantic_similarity": self.semantic_similarity.to_dict(),
            "auc_overall": self.auc_overall,
            "per_trait_auc": self.per_trait_auc,
            "thresholds_met": self.thresholds_met,
            "strategy_breakdown": self.strategy_breakdown,
        }


def real_frequency_profile(bank: SnippetBank, patient_id: str) -> FrequencyProfile:
    snippets = bank.patient_snippets(patient_id)
    freqs = {
        t: sum(1 for s in snippets if t in s.traits) / len(snippets) for t in ALL_TRAITS
    }
    return FrequencyProfile(patient_id=patient_id, source="real", frequencies=freqs)


def _simulate_patient(
    bank: SnippetBank,
    patient_id: str,
    cfg: FidelityConfig,
    components: Components,
    strategy_counts: dict,
) -> tuple[FrequencyProfile, list[tuple[str, str]]]:
    """Simulate replies for one held-out patient; anchors never come from them.

    Questions are the random baseline's: a uniform strategy, asked by the
    selector with a neutral thought, so they pass its vocabulary check.
    """
    profile = base_rates(bank, patient_id)
    params = EpisodeConfig().emission
    belief = BeliefState.fresh()
    counts = {t: 0 for t in ALL_TRAITS}
    sim_pairs: list[tuple[str, str]] = []
    audit_log = components.retriever.audit_log
    audit_start = len(audit_log)
    total = 0
    for k in range(cfg.episodes_per_patient):
        ep_seed = derive_seed(cfg.seed, f"fidelity-{patient_id}-{k}")
        rng = random.Random(ep_seed)
        for topic in plan_topics(components.ontology.dialogic_scenarios(), ep_seed, cfg.turns):
            ctx = SessionContext(
                clinical_background="", history=[], belief=belief, topic=topic, ontology=components.ontology
            )
            strategy, question = random_question(components, ctx, rng)
            _, _, reply, result = patient_turn(components, params, profile, (), [], rng, strategy, question)
            turns, per_trait = strategy_counts.setdefault(
                strategy.value, [0, {t: 0 for t in ALL_TRAITS}]
            )
            strategy_counts[strategy.value][0] = turns + 1
            for t, present in result.labels.items():
                if present:
                    counts[t] += 1
                    per_trait[t] += 1
            sim_pairs.append((question, reply))
            total += 1
    leaked = [p for p in audit_log[audit_start:] if p == patient_id]
    if leaked:
        raise AssertionError(f"retrieval leaked {len(leaked)} anchors from held-out {patient_id}")
    freqs = {t: counts[t] / total for t in ALL_TRAITS}
    return FrequencyProfile(patient_id, "simulated", freqs), sim_pairs


def _semantic_similarity(
    bank: SnippetBank, patient_id: str, sim_pairs: list[tuple[str, str]], encoder
) -> float:
    """Mean cosine between each simulated reply and the real reply whose question is nearest."""
    real = bank.patient_snippets(patient_id)
    q_embs = [encoder.encode(s.doctor_curr) for s in real]
    r_embs = [encoder.encode(s.patient_reply) for s in real]
    scores = []
    for q_sim, r_sim in sim_pairs:
        qe = encoder.encode(q_sim)
        best = max(range(len(real)), key=lambda i: (cosine(qe, q_embs[i]), -i))
        scores.append(cosine(encoder.encode(r_sim), r_embs[best]))
    return statistics.mean(scores)


def loo_validate(
    bank: SnippetBank,
    cfg: FidelityConfig | None = None,
    ontology: Ontology | None = None,
) -> FidelityReport:
    """Leave-one-out validation of the patient agent against its source bank."""
    cfg = cfg or FidelityConfig()
    patients = bank.patient_ids()
    if len(patients) < 2:
        raise InsufficientPatientsError("leave-one-out needs at least 2 patients")
    episode = EpisodeConfig()
    components = build_components(episode, bank, ontology)

    kls: list[float] = []
    ferrs: list[float] = []
    sims: list[float] = []
    scores_by_trait: dict[TraitId, dict[str, float]] = {t: {} for t in ALL_TRAITS}
    labels_by_trait: dict[TraitId, dict[str, bool]] = {t: {} for t in ALL_TRAITS}
    strategy_counts: dict[str, list] = {}

    for pid in patients:
        real_profile = real_frequency_profile(bank, pid)
        sim_profile, sim_pairs = _simulate_patient(bank, pid, cfg, components, strategy_counts)
        kls.append(kl_divergence(real_profile, sim_profile))
        ferrs.append(frequency_error(real_profile, sim_profile))
        sims.append(_semantic_similarity(bank, pid, sim_pairs, components.encoder))

        patient = base_rates(bank, pid)
        for t in ALL_TRAITS:
            scores_by_trait[t][pid] = emission_probability(
                patient.base_rates[t], False, episode.emission
            )
            labels_by_trait[t][pid] = t in patient.ground_truth

    per_trait: dict[str, dict] = {}
    included: list[float] = []
    for t in ALL_TRAITS:
        auc = trait_auc(scores_by_trait[t], labels_by_trait[t])
        n_pos = sum(labels_by_trait[t].values())
        per_trait[t.name] = {"auc": auc, "n_patients": n_pos}
        if auc is not None and n_pos >= cfg.min_patients_per_trait:
            included.append(auc)
    auc_overall = statistics.mean(included) if included else None

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
        label: {t.name: per_trait_counts[t] / turns for t in ALL_TRAITS}
        for label, (turns, per_trait_counts) in sorted(strategy_counts.items())
        if turns
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
