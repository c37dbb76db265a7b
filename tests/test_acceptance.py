"""Acceptance suite: one test per release criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Budgets are asserted, not aspirational.
"""

import dataclasses
import math
import random
import time

import pytest

from elicit.bank import PatientProfile, SynthSpec, THETA_EPS, synthesize_bank
from elicit.belief import BeliefState, beta_entropy, priority_traits
from elicit.detector import RuleDetector
from elicit.metrics import aggregate
from elicit.ontology import ALL_TRAITS, TraitId, default_ontology
from elicit.patient import EmissionParams, TemplateRealiser, emit_traits
from elicit.retrieval import AnchorRetriever, EmptyCandidateSetError, FallbackEncoder, cosine
from elicit.runner import EpisodeConfig, build_components, run_batch, run_episode, run_replay

from conftest import episode_metrics, make_snippet
from test_metrics import staircase_log


def _report(criterion: str, started: float, budget_s: float) -> None:
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s < {budget_s:.0f}s)")
    assert elapsed < budget_s, f"{criterion} exceeded runtime budget"


def test_criterion_1_case_study_metric_oracle():
    t0 = time.monotonic()
    m = episode_metrics(staircase_log())
    assert m.coverage == pytest.approx(1.0, abs=1e-12)
    assert m.aucc == pytest.approx(0.6667, abs=5e-4)
    _report("1 case-study metric oracle", t0, 1.0)


def test_criterion_2_emission_statistics():
    t0 = time.monotonic()
    base = {t: THETA_EPS for t in ALL_TRAITS}
    base[TraitId.F5] = 0.5
    profile = PatientProfile("px", base, frozenset({TraitId.F5}))
    params = EmissionParams(M=4.0)

    rng = random.Random(1001)
    hits = sum(TraitId.F5 in emit_traits(profile, (), params, rng, {}) for _ in range(10_000))
    rate = hits / 10_000
    assert 0.48 <= rate <= 0.52, rate

    rng = random.Random(1002)
    suppressed = sum(
        TraitId.F5 in emit_traits(profile, {TraitId.F5}, params, rng, {})
        for _ in range(10_000)
    )
    s_rate = suppressed / 10_000
    assert s_rate < 0.03, s_rate  # analytic sigma(-4) ~ 0.018
    _report("2 emission-model statistics", t0, 10.0)


def test_criterion_3_belief_entropy_suite():
    t0 = time.monotonic()
    from scipy.integrate import quad

    assert beta_entropy(1, 1) == pytest.approx(0.0, abs=1e-9)

    def quad_entropy(a, b):
        log_b = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

        def f(x):
            logp = (a - 1) * math.log(x) + (b - 1) * math.log(1 - x) - log_b
            return -math.exp(logp) * logp

        return quad(f, 0.0, 1.0, limit=200)[0]

    for a in range(1, 6):
        for b in range(1, 6):
            assert beta_entropy(a, b) == pytest.approx(quad_entropy(a, b), abs=1e-3), (a, b)

    rng = random.Random(31)
    for _ in range(1000):
        n = rng.randint(0, 30)
        positives = tuple(rng.randint(0, n) for _ in ALL_TRAITS)
        confirmed = frozenset(t for t in ALL_TRAITS if rng.random() < 0.25)
        state = BeliefState(positives=positives, turns=n, tau=0.6, confirmed=confirmed)
        k = rng.randint(1, 10)
        expected = sorted(
            (t for t in ALL_TRAITS if t not in confirmed),
            key=lambda t: (-beta_entropy(1.0 + positives[t - 1], 1.0 + n - positives[t - 1]), int(t)),
        )[:k]
        assert priority_traits(state, k) == expected
    _report("3 belief/entropy suite", t0, 30.0)


def test_criterion_4_closed_loop_round_trip():
    t0 = time.monotonic()
    realiser = TemplateRealiser(default_ontology())
    detector = RuleDetector(default_ontology())
    rng = random.Random(41)
    fillers = [
        "Well I went to the lake with my brother and we talked for a while.",
        "Mostly I keep to a routine and it does not change much.",
        "It is the circle of life, as they say, and that is that.",
        "School was fine and then we had dinner at my aunt's place.",
        "I do not really know, maybe it depends on the weather.",
    ]
    questions = ["How was it?", "Tell me more.", "What happened next?", "And then?"]
    all_sets = (
        [frozenset()]
        + [frozenset({t}) for t in ALL_TRAITS]
        + [frozenset({a, b}) for a in ALL_TRAITS for b in ALL_TRAITS if a < b]
    )
    failures = 0
    for _ in range(1000):
        anchor = make_snippet(patient_reply=rng.choice(fillers))
        question = rng.choice(questions)
        emitted = all_sets[rng.randrange(len(all_sets))]
        reply = realiser.realise(question, [], anchor, emitted, seed=rng.randrange(2**31))
        if detector.detect(question, reply).positive() != emitted:
            failures += 1
    assert failures == 0
    # and exhaustively over every |E| <= 2 for a fixed anchor set
    for anchor_text in fillers:
        anchor = make_snippet(patient_reply=anchor_text)
        for emitted in all_sets:
            reply = realiser.realise("Go on.", [], anchor, emitted, seed=rng.randrange(2**31))
            assert detector.detect("Go on.", reply).positive() == emitted
    _report("4 closed-loop round-trip", t0, 30.0)


@pytest.mark.slow
def test_criterion_5_synthetic_ordering_experiment():
    t0 = time.monotonic()
    bank = synthesize_bank(SynthSpec(n_patients=20, snippets_per_patient=10), seed=1234)
    # strategy-sensitive patient hook on, identically for both conditions;
    # with it off the patient is strategy-blind and no planner can separate
    emission = EmissionParams(strategy_gain=2.0)
    cov_margins = []
    aucc_margins = []
    for run_seed in (11, 22, 33, 44, 55):
        cfg = EpisodeConfig(seed=run_seed, emission=emission)
        comps = build_components(cfg, bank)
        planned = aggregate(list(run_batch(cfg, bank, "tpa", 200, components=comps).logs))
        uniform = aggregate(list(run_batch(cfg, bank, "random", 200, components=comps).logs))
        cov_margins.append(planned.mean_coverage - uniform.mean_coverage)
        aucc_margins.append(planned.mean_aucc - uniform.mean_aucc)
    assert all(m > 0 for m in cov_margins), cov_margins
    assert all(m > 0 for m in aucc_margins), aucc_margins
    print(
        "  coverage margins:", [round(m, 4) for m in cov_margins],
        "aucc margins:", [round(m, 4) for m in aucc_margins],
    )
    _report("5 synthetic ordering (planned > random, 5/5 seeds)", t0, 300.0)


def test_criterion_6_replay_baseline_oracle():
    t0 = time.monotonic()
    cfg = EpisodeConfig(max_turns=20)
    # both ground-truth markers in the first reply: with negative evidence
    # accruing on all traits every turn, only early or repeated detections
    # cross the confirmation threshold
    transcript = [
        ("How was your week?", "Busy, you know what I mean, and he said mideast on the news."),
        ("What did you see?", "Nothing much after that, it quieted down."),
    ]
    rules = RuleDetector(default_ontology())
    log = run_replay(transcript, frozenset({TraitId.F2, TraitId.F6}), cfg, rules)
    m = episode_metrics(log)
    assert m.coverage == pytest.approx(1.0)
    assert m.f1 == pytest.approx(1.0)

    clean = [("q1", "Nothing much happened."), ("q2", "Just a normal day.")]
    m2 = episode_metrics(run_replay(clean, frozenset({TraitId.F2, TraitId.F6}), cfg, rules))
    assert m2.coverage == 0.0
    _report("6 replay-baseline oracle", t0, 1.0)


def test_criterion_7_retrieval_correctness():
    t0 = time.monotonic()
    enc = FallbackEncoder()
    words = ["school", "work", "lake", "picture", "friends", "lonely", "story", "cartoon"]
    rng = random.Random(71)
    violations = 0
    for _ in range(1000):
        n = rng.randint(2, 8)
        snippets = tuple(
            make_snippet(
                patient_id=f"P{rng.randint(1, 3)}",
                session_id=f"s{rng.randint(1, 2)}",
                doctor_curr=" ".join(rng.choice(words) for _ in range(rng.randint(1, 5))),
                patient_reply=f"reply {i}",
            )
            for i in range(n)
        )
        from elicit.bank import SnippetBank

        bank = SnippetBank(snippets=snippets)
        exclude = rng.choice([s.patient_id for s in snippets])
        query = " ".join(rng.choice(words) for _ in range(rng.randint(1, 4)))
        candidates = [s for s in snippets if s.patient_id != exclude]
        if not candidates:
            with pytest.raises(EmptyCandidateSetError):
                AnchorRetriever(bank, enc).retrieve(query, exclude)
            continue
        got, score = AnchorRetriever(bank, enc).retrieve(query, exclude)
        if got.patient_id == exclude:
            violations += 1
        q = enc.encode(query)
        best = min(
            candidates,
            key=lambda s: (
                -cosine(q, enc.encode(s.doctor_curr)),
                s.patient_id, s.session_id, s.scenario_id, s.doctor_curr, s.patient_reply,
            ),
        )
        best_score = cosine(q, enc.encode(best.doctor_curr))
        assert score == pytest.approx(best_score, abs=1e-12)
        assert got == best
    assert violations == 0

    bank = SnippetBank(snippets=(
        make_snippet(patient_id="A", doctor_curr="tell me about the lake"),
        make_snippet(patient_id="B", doctor_curr="tell me about school"),
    ))
    got, score = AnchorRetriever(bank, enc).retrieve("tell me about school", "A")
    assert got.patient_id == "B"
    assert score == pytest.approx(1.0, abs=1e-6)
    _report("7 retrieval correctness", t0, 30.0)


def test_criterion_8_fidelity_metric_oracles():
    t0 = time.monotonic()
    from elicit.fidelity import SummaryStat, kl_divergence, trait_auc
    from test_fidelity import _rank_auc

    def prof(freqs):
        base = {t: 0.0 for t in ALL_TRAITS}
        base.update(freqs)
        return base

    identical = prof({TraitId.F1: 0.4, TraitId.F2: 0.2})
    assert kl_divergence(identical, identical) == pytest.approx(0.0, abs=1e-9)

    p = prof({TraitId.F1: 0.5, TraitId.F2: 0.5})
    q = prof({TraitId.F1: 0.9, TraitId.F2: 0.1})
    assert kl_divergence(p, q) == pytest.approx(0.5108, abs=1e-3)

    rng = random.Random(81)
    for _ in range(1000):
        n = rng.randint(2, 10)
        scores = {f"p{i}": rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]) for i in range(n)}
        labels = {k: rng.random() < 0.5 for k in scores}
        got = trait_auc(scores, labels)
        want = _rank_auc(scores, labels)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-12)

    scores = {f"p{i}": rng.random() for i in range(400)}
    labels = {k: i < 200 for i, k in enumerate(scores)}
    values = list(labels.values())
    rng.shuffle(values)
    assert trait_auc(scores, dict(zip(scores, values))) == pytest.approx(0.5, abs=0.1)

    import statistics

    vals = [0.2, 0.3, 0.9, 0.4]
    stat = SummaryStat.of(vals)
    assert stat.ci95 == pytest.approx(1.96 * statistics.stdev(vals) / math.sqrt(4), abs=1e-9)
    _report("8 fidelity-metric oracles", t0, 30.0)


@pytest.mark.slow
def test_criterion_9_determinism_and_reproducibility(tmp_path):
    t0 = time.monotonic()
    from elicit.cli import main

    def pipeline(root, parallel):
        root.mkdir(parents=True, exist_ok=True)
        bank = root / "bank.jsonl"
        logs = root / "logs"
        report = root / "report.json"
        assert main(["synth", "--patients", "4", "--snippets", "8", "--seed", "17",
                     "--out", str(bank)]) == 0
        assert main(["run", "--bank", str(bank), "--mode", "tpa", "--episodes", "8",
                     "--seed", "17", "--parallel", str(parallel), "--out", str(logs)]) == 0
        assert main(["evaluate", "--logs", str(logs), "--out", str(report),
                     "--csv", str(root / "report.csv")]) == 0
        episode_bytes = {
            p.name: p.read_bytes() for p in logs.glob("*.json") if p.name != "manifest.json"
        }
        return episode_bytes, report.read_bytes(), (root / "report.csv").read_bytes()

    a = pipeline(tmp_path / "a", parallel=1)
    b = pipeline(tmp_path / "b", parallel=1)
    c = pipeline(tmp_path / "c", parallel=4)
    assert a == b, "same seed, serial: outputs must be byte-identical"
    assert a == c, "parallel 4 vs serial: outputs must be byte-identical"
    _report("9 determinism & reproducibility", t0, 120.0)


def test_criterion_10_anti_leak_guard():
    t0 = time.monotonic()
    from test_runner import PoisonSet

    bank = synthesize_bank(SynthSpec(n_patients=3, snippets_per_patient=6), seed=10)
    cfg = EpisodeConfig(seed=10)
    comps = build_components(cfg, bank)

    base = {t: THETA_EPS for t in ALL_TRAITS}
    base[TraitId.F2] = 0.6
    base[TraitId.F6] = 0.4
    poison = PoisonSet({TraitId.F2, TraitId.F6})
    profile = PatientProfile("P001", base, poison)

    log = run_episode(cfg, bank, profile, comps, "poison-acceptance")
    assert log is not None and len(log.turns) == cfg.max_turns
    # the runner copies ground truth once at entry; per-turn component calls: zero reads
    assert poison.counts["iter"] <= 1
    assert poison.counts["contains"] == 0
    assert poison.counts["len"] <= 1

    # structural guarantee: the selector's context type has no ground-truth field
    from elicit.selector import SessionContext

    assert "ground_truth" not in {f.name for f in dataclasses.fields(SessionContext)}
    _report("10 anti-leak guard", t0, 10.0)
