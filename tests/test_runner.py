import dataclasses
import json
import math
import random
import re

import pytest

from elicit.bank import PatientProfile, THETA_EPS, base_rates
from elicit.ontology import ALL_TRAITS, STRATEGY_ORDER, TraitId, default_ontology
from elicit.runner import (
    EpisodeConfig,
    LogFormatError,
    build_components,
    derive_seed,
    plan_topics,
    read_logs,
    run_batch,
    run_episode,
    run_replay,
    replay_transcript_for_patient,
    write_logs,
)



def profile_with(rates, patient_id="PX"):
    base = {t: THETA_EPS for t in ALL_TRAITS}
    for k, v in rates.items():
        base[TraitId.parse(k) if isinstance(k, str) else k] = v
    return PatientProfile(
        patient_id=patient_id,
        base_rates=base,
        total_turns=10,
        ground_truth=frozenset(t for t, v in base.items() if v > THETA_EPS),
    )


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, 1.0, 1.5, -0.1])
def test_episode_config_rejects_tau_outside_zero_to_one(tau):
    with pytest.raises(ValueError, match="tau"):
        EpisodeConfig(tau=tau)


@pytest.mark.parametrize("tau", [0.0, 0.6, 0.99])
def test_episode_config_accepts_tau_in_zero_to_one(tau):
    assert EpisodeConfig(tau=tau).tau == tau


@pytest.fixture(scope="module")
def stack(synth_bank_module):
    cfg = EpisodeConfig(seed=5)
    return cfg, synth_bank_module, build_components(cfg, synth_bank_module)


@pytest.fixture(scope="module")
def synth_bank_module():
    from elicit.bank import SynthSpec, synthesize_bank

    return synthesize_bank(SynthSpec(n_patients=4, snippets_per_patient=8), seed=42)


# --- topic planning ----------------------------------------------------------


def test_plan_topics_deterministic(ontology):
    a = plan_topics(ontology.scenarios, seed=1, n_turns=20)
    b = plan_topics(ontology.scenarios, seed=1, n_turns=20)
    assert a == b


def test_plan_topics_covers_all_dialogic(ontology):
    topics = plan_topics(ontology.scenarios, seed=3, n_turns=20)
    assert len(topics) == 20
    ids = {t.id for t in topics}
    assert ids == {s.id for s in ontology.dialogic_scenarios()}


def test_plan_topics_only_dialogic(ontology):
    for seed in range(5):
        for t in plan_topics(ontology.scenarios, seed=seed, n_turns=20):
            assert t.dialogic


# --- planned-questioning episodes ---------------------------------------------


def test_episode_deterministic(stack):
    cfg, bank, comps = stack
    profile = base_rates(bank, "P001")
    a = run_episode(cfg, bank, profile, comps, "e1")
    b = run_episode(cfg, bank, profile, comps, "e1")
    assert a.to_json() == b.to_json()
    assert len(a.turns) == cfg.max_turns


def test_episode_skips_empty_ground_truth(stack):
    cfg, bank, comps = stack
    profile = profile_with({})
    assert run_episode(cfg, bank, profile, comps, "e2") is None


def test_strong_single_trait_reaches_full_coverage(stack):
    cfg, bank, comps = stack
    profile = profile_with({"F2": 1 - THETA_EPS})
    hit = 0
    for seed in range(100):
        log = run_episode(dataclasses.replace(cfg, seed=seed), bank, profile, comps, f"e{seed}")
        if log.turns[-1].coverage_after == 1.0:
            hit += 1
    assert hit >= 99


def test_coverage_is_monotone(stack):
    cfg, bank, comps = stack
    for pid in bank.patient_ids():
        log = run_episode(cfg, bank, base_rates(bank, pid), comps, f"mono-{pid}")
        covs = [t.coverage_after for t in log.turns]
        assert covs == sorted(covs)


def test_anchor_exclusion_logged(stack):
    cfg, bank, comps = stack
    for pid in bank.patient_ids():
        log = run_episode(cfg, bank, base_rates(bank, pid), comps, f"anchor-{pid}")
        for turn in log.turns:
            assert turn.anchor_patient_id != pid


def test_episode_log_round_trips(stack):
    cfg, bank, comps = stack
    log = run_episode(cfg, bank, base_rates(bank, "P002"), comps, "rt")
    from elicit.runner import EpisodeLog

    again = EpisodeLog.from_json(log.to_json())
    assert again == log


def test_final_confirmed_matches_last_snapshot(stack):
    cfg, bank, comps = stack
    log = run_episode(cfg, bank, base_rates(bank, "P001"), comps, "fc")
    last = log.turns[-1].belief_snapshot
    from_snapshot = {TraitId.parse(n) for n, e in last.items() if e["confirmed"]}
    assert log.final_confirmed == from_snapshot


def test_questions_never_leak_diagnostic_vocabulary(stack):
    from elicit.selector import TRAIT_TOKEN_RE

    cfg, bank, comps = stack
    log = run_episode(cfg, bank, base_rates(bank, "P003"), comps, "leak")
    for turn in log.turns:
        assert not TRAIT_TOKEN_RE.search(turn.question)


# --- random baseline ----------------------------------------------------------


def test_random_reproducible(stack):
    cfg, bank, comps = stack
    profile = base_rates(bank, "P001")
    a = run_episode(cfg, bank, profile, comps, "r1", mode="random")
    b = run_episode(cfg, bank, profile, comps, "r1", mode="random")
    assert a.to_json() == b.to_json()
    assert all(t.thought is None for t in a.turns)


def test_random_strategy_frequencies(stack):
    cfg, bank, comps = stack
    profile = base_rates(bank, "P001")
    counts = {s.value: 0 for s in STRATEGY_ORDER}
    total = 0
    for i in range(300):
        log = run_episode(dataclasses.replace(cfg, seed=i), bank, profile, comps, f"r{i}", mode="random")
        for t in log.turns:
            counts[t.strategy] += 1
            total += 1
    assert total == 6000
    for s, n in counts.items():
        assert n / total == pytest.approx(1 / 6, abs=0.02), s


def test_run_episode_rejects_a_mode_outside_its_loop(stack):
    cfg, bank, comps = stack
    with pytest.raises(ValueError, match="unknown loop mode"):
        run_episode(cfg, bank, base_rates(bank, "P001"), comps, "r1", mode="replay")


@pytest.mark.parametrize("mode", ["tpa", "random"])
def test_a_topic_naming_every_strategy_aborts_the_episode_in_either_mode(synth_bank_module, mode):
    # each mode asks through the selector, which refuses a question naming its strategy
    ont = default_ontology()
    names = " ".join(ont.strategy_display_name(s) for s in STRATEGY_ORDER)
    ont = dataclasses.replace(ont, scenarios=tuple(
        dataclasses.replace(s, name=f"{names} talk") if s.dialogic else s for s in ont.scenarios
    ))
    cfg = EpisodeConfig(seed=5)
    comps = build_components(cfg, synth_bank_module, ont)
    log = run_episode(cfg, synth_bank_module, base_rates(synth_bank_module, "P001"), comps, "leaky", mode=mode)
    assert log.aborted and log.turns == ()
    assert log.abort_reason.startswith("QuestionConstraintError")


# --- replay -------------------------------------------------------------------


def test_replay_full_coverage():
    # markers for both ground-truth traits land in the first reply so each
    # detection crosses the confirmation threshold immediately
    transcript = [
        ("How was your week?", "Busy, you know what I mean, and he said mideast on the news."),
        ("What did you see?", "Nothing much after that."),
    ]
    cfg = EpisodeConfig(max_turns=20)
    log = run_replay(transcript, frozenset({TraitId.F2, TraitId.F6}), cfg)
    assert log.turns[-1].coverage_after == 1.0
    assert all(t.strategy == "replay" for t in log.turns)
    assert all(t.thought is None for t in log.turns)


def test_replay_late_single_detection_stays_below_threshold():
    # a first detection at turn 2 yields posterior mean 0.5, under tau
    transcript = [
        ("q1", "A plain first answer."),
        ("q2", "He said mideast on the news."),
    ]
    log = run_replay(transcript, frozenset({TraitId.F2}), EpisodeConfig())
    assert log.turns[-1].coverage_after == 0.0


def test_replay_no_markers_zero_coverage():
    transcript = [("q1", "Nothing special."), ("q2", "Just a normal day.")]
    log = run_replay(transcript, frozenset({TraitId.F2}), EpisodeConfig())
    assert log.turns[-1].coverage_after == 0.0


def test_replay_truncates_to_budget():
    transcript = [(f"q{i}", "plain reply") for i in range(25)]
    log = run_replay(transcript, frozenset({TraitId.F2}), EpisodeConfig(max_turns=20))
    assert len(log.turns) == 20


def test_replay_rejects_empty_transcript():
    with pytest.raises(ValueError):
        run_replay([], frozenset({TraitId.F2}), EpisodeConfig())


def test_replay_transcript_for_patient(synth_bank_module):
    pairs = replay_transcript_for_patient(synth_bank_module, "P001")
    assert pairs
    assert all(q and r for q, r in pairs)


# --- ground-truth isolation ----------------------------------------------------


class PoisonSet(frozenset):
    """Records every read; doctor-side components must never trigger one."""

    counts = None

    def __new__(cls, iterable):
        obj = super().__new__(cls, iterable)
        obj.counts = {"contains": 0, "iter": 0, "len": 0}
        return obj

    def __contains__(self, item):
        self.counts["contains"] += 1
        return super().__contains__(item)

    def __iter__(self):
        self.counts["iter"] += 1
        return super().__iter__()

    def __len__(self):
        self.counts["len"] += 1
        return super().__len__()


def test_ground_truth_isolated_from_components(stack):
    cfg, bank, comps = stack
    honest = profile_with({"F2": 0.6, "F6": 0.4})
    poison = PoisonSet(honest.ground_truth)
    profile = dataclasses.replace(honest, ground_truth=poison)
    log = run_episode(cfg, bank, profile, comps, "poison")
    assert log is not None and len(log.turns) == cfg.max_turns
    # one defensive copy at entry; nothing per-turn, so counts stay O(1)
    assert poison.counts["iter"] <= 1
    assert poison.counts["contains"] == 0
    assert poison.counts["len"] <= 1


def test_session_context_carries_no_ground_truth():
    from elicit.selector import SessionContext

    fields = {f.name for f in dataclasses.fields(SessionContext)}
    assert "ground_truth" not in fields


def test_emitter_reads_only_base_rates():
    from elicit.patient import EmissionParams, emit_traits

    class NoGroundTruth:
        """Duck-typed profile with no ground_truth attribute at all."""

        def __init__(self, profile):
            self.patient_id = profile.patient_id
            self.base_rates = profile.base_rates
            self.total_turns = profile.total_turns

    profile = profile_with({"F2": 0.5})
    decision = emit_traits(NoGroundTruth(profile), (), EmissionParams(), random.Random(1))
    assert decision.probabilities[TraitId.F2] == pytest.approx(0.5)


def test_affinity_weight_turns_the_affinity_hook_on(stack):
    from elicit.patient import EmissionParams
    from elicit.retrieval import cosine
    from elicit.runner import _emission_offsets

    _, _, comps = stack
    question = "Tell me about the people you talk to and what you say to them."
    assert _emission_offsets(comps, EmissionParams(), None, question) is None
    offsets = _emission_offsets(comps, EmissionParams(affinity_weight=0.5), None, question)
    q = comps.encoder.encode(question)
    assert offsets == {t: 0.5 * cosine(q, comps.definition_embedding(t)) for t in ALL_TRAITS}
    assert any(offsets.values())


# --- batches -------------------------------------------------------------------


def test_derive_seed_stable():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(2, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")


def test_batch_parallel_equals_serial(synth_bank_module, tmp_path):
    cfg = EpisodeConfig(seed=9)
    comps = build_components(cfg, synth_bank_module)
    serial = run_batch(cfg, synth_bank_module, "tpa", 8, parallel=1, components=comps)
    parallel = run_batch(cfg, synth_bank_module, "tpa", 8, parallel=4, components=comps)
    assert [l.to_json() for l in serial.logs] == [l.to_json() for l in parallel.logs]

    write_logs(serial, tmp_path / "a")
    write_logs(parallel, tmp_path / "b")
    for pa, pb in zip(sorted((tmp_path / "a").iterdir()), sorted((tmp_path / "b").iterdir())):
        assert pa.read_bytes() == pb.read_bytes()


def test_batch_replay_mode(synth_bank_module):
    cfg = EpisodeConfig(seed=9)
    result = run_batch(cfg, synth_bank_module, "replay", 0)
    assert len(result.logs) == len(synth_bank_module.patient_ids())
    assert all(l.mode == "replay" for l in result.logs)


@pytest.mark.parametrize("mode", ["tpa", "random", "replay"])
def test_batch_builds_profiles_only_for_the_patients_it_runs(monkeypatch, mode):
    from elicit import runner
    from elicit.bank import SynthSpec, synthesize_bank

    bank = synthesize_bank(SynthSpec(n_patients=6, snippets_per_patient=5), seed=11)
    cfg = EpisodeConfig(seed=4, max_turns=4)
    comps = build_components(cfg, bank)
    built = []

    def counting_base_rates(b, patient_id):
        built.append(patient_id)
        return base_rates(b, patient_id)

    monkeypatch.setattr(runner, "base_rates", counting_base_rates)
    two = run_batch(cfg, bank, mode, 2, components=comps)
    assert sorted(built) == ["P001", "P002"]
    built.clear()
    # every patient's profile built: episode ids and seeds are the same, so the first two logs are too
    six = run_batch(cfg, bank, mode, 6, components=comps)
    assert sorted(built) == bank.patient_ids()
    assert [l.to_json() for l in two.logs] == [l.to_json() for l in six.logs[:2]]


def test_batch_unknown_mode(synth_bank_module):
    with pytest.raises(ValueError):
        run_batch(EpisodeConfig(), synth_bank_module, "mcts", 4)


def test_write_and_read_logs_round_trip(synth_bank_module, tmp_path):
    cfg = EpisodeConfig(seed=3)
    result = run_batch(cfg, synth_bank_module, "random", 4)
    write_logs(result, tmp_path)
    again = read_logs(tmp_path)
    assert [l.episode_id for l in again] == sorted(l.episode_id for l in result.logs)


def _break_turn(d):
    d["turns"][0]["extra"] = 1


def _drop_turn_key(d):
    del d["turns"][0]["question"]


def _drop_episode_key(d):
    del d["episode_id"]


def _unknown_trait(d):
    d["ground_truth"] = ["F99"]


def _turns_not_a_list(d):
    d["turns"] = 3


@pytest.mark.parametrize(
    "corrupt",
    [_break_turn, _drop_turn_key, _drop_episode_key, _unknown_trait, _turns_not_a_list,
     "not json", "[1, 2]"],
)
def test_read_logs_names_the_malformed_file(synth_bank_module, tmp_path, corrupt):
    paths = write_logs(run_batch(EpisodeConfig(seed=3), synth_bank_module, "random", 2), tmp_path)
    bad = paths[1]
    if callable(corrupt):
        doc = json.loads(bad.read_text("utf-8"))
        corrupt(doc)
        bad.write_text(json.dumps(doc), encoding="utf-8")
    else:
        bad.write_text(corrupt, encoding="utf-8")
    with pytest.raises(LogFormatError, match=re.escape(str(bad))) as info:
        read_logs(tmp_path)
    assert isinstance(info.value, ValueError)


def test_batch_skips_patients_without_ground_truth():
    from elicit.bank import SnippetBank
    from conftest import make_snippet

    bank = SnippetBank(snippets=(
        make_snippet("P001", patient_reply="Plain reply with no markers at all.", traits=()),
        make_snippet("P002", patient_reply="It is the circle of life I suppose.", traits=("F10",)),
    ))
    result = run_batch(EpisodeConfig(seed=1), bank, "tpa", 2)
    assert len(result.logs) == 1
    assert result.logs[0].patient_id == "P002"
    assert len(result.skipped) == 1
    assert "P001" in result.skipped[0]


def test_full_llm_stack_with_scripted_backend(synth_bank_module):
    # the whole loop wired through generation backends, served by a script
    import json as jsonlib

    from elicit.backends import ScriptedBackend

    think = jsonlib.dumps({
        "confirmed_analysis": "none yet",
        "elicitation_conditions": "keep it gentle",
        "strategy_rationale": "go broad first",
    })
    plan = jsonlib.dumps({"strategy": "open_ended"})
    ask = jsonlib.dumps({"question": "Tell me a bit about your week."})
    realise = "It was a quiet week, you know what I mean, nothing much."
    detect = jsonlib.dumps(
        {t.name: (t == TraitId.F6) for t in ALL_TRAITS}
    )
    turns = 3
    client = ScriptedBackend(script=[think, plan, ask, realise, detect] * turns)

    cfg = EpisodeConfig(
        max_turns=turns, seed=2, selector_kind="llm", realiser_kind="llm", detector_kind="llm"
    )
    comps = build_components(cfg, synth_bank_module, client=client)
    profile = profile_with({"F6": 0.5}, patient_id="PX")
    log = run_episode(cfg, synth_bank_module, profile, comps, "llm-ep")
    assert not log.aborted
    assert len(log.turns) == turns
    assert log.turns[0].strategy == "open_ended"
    assert log.turns[0].question == "Tell me a bit about your week."
    assert log.turns[0].response == realise
    # F6 detected at turn 1 confirms immediately and fills coverage
    assert log.turns[-1].coverage_after == 1.0
    assert log.turns[0].thought["confirmed_analysis"] == "none yet"


def test_encoder_kind_is_checked_when_components_are_built(synth_bank_module):
    with pytest.raises(ValueError, match="needs a backend client"):
        build_components(EpisodeConfig(encoder_kind="remote"), synth_bank_module)
    with pytest.raises(ValueError, match="unknown encoder kind"):
        build_components(EpisodeConfig(encoder_kind="bert"), synth_bank_module)
