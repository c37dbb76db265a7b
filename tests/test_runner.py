import dataclasses
import json
import math
import random
import re
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from elicit.backends import BackendConfig, HttpBackend, ScriptExhaustedError
from elicit.bank import PatientProfile, SynthSpec, THETA_EPS, base_rates, synthesize_bank
from elicit.belief import MAX_TURNS
from elicit.detector import RuleDetector
from elicit.errors import InputError
from elicit.fidelity import FidelityConfig
from elicit.ontology import ALL_TRAITS, STRATEGY_ORDER, OntologyError, TraitId, default_ontology
from elicit.patient import EmissionParams
from elicit.retrieval import FallbackEncoder
from elicit.episode_log import LogFormatError, read_logs, write_logs
from elicit.runner import (
    KINDS,
    EpisodeConfig,
    build_components,
    derive_seed,
    plan_topics,
    run_batch,
    run_episode,
    run_replay,
    replay_transcript_for_patient,
)

from conftest import CountingEncoder

RULES = RuleDetector(default_ontology())


def coverages(log):
    """Ground-truth coverage after each turn of `log`, from its confirmed traits."""
    gt = {t.name for t in log.ground_truth}
    return [len(gt.intersection(t.confirmed)) / len(gt) for t in log.turns]


def profile_with(rates, patient_id="PX"):
    base = {t: THETA_EPS for t in ALL_TRAITS}
    for k, v in rates.items():
        base[TraitId.parse(k) if isinstance(k, str) else k] = v
    return PatientProfile(
        patient_id=patient_id,
        base_rates=base,
        ground_truth=frozenset(t for t, v in base.items() if v > THETA_EPS),
    )


@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, 1.0, 1.5, -0.1])
def test_episode_config_rejects_tau_outside_zero_to_one(tau):
    with pytest.raises(ValueError, match="tau"):
        EpisodeConfig(tau=tau)


@pytest.mark.parametrize("tau", [0.0, 0.6, 0.99])
def test_episode_config_accepts_tau_in_zero_to_one(tau):
    assert EpisodeConfig(tau=tau).tau == tau


@pytest.mark.parametrize("turns", [0, -1, MAX_TURNS + 1, 2**70])
def test_configs_reject_a_turn_count_outside_one_to_the_bound(turns):
    with pytest.raises(InputError, match=rf"^max_turns must be in 1\.\.{MAX_TURNS}, got {turns}$"):
        EpisodeConfig(max_turns=turns)
    with pytest.raises(InputError, match=rf"^turns must be in 1\.\.{MAX_TURNS}, got {turns}$"):
        FidelityConfig(turns=turns)


def test_configs_accept_the_turn_bound():
    assert EpisodeConfig(max_turns=MAX_TURNS).max_turns == FidelityConfig(turns=MAX_TURNS).turns == MAX_TURNS


@pytest.fixture(scope="module")
def stack(synth_bank):
    cfg = EpisodeConfig(seed=5)
    return cfg, synth_bank, build_components(cfg, synth_bank)


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
        if coverages(log)[-1] == 1.0:
            hit += 1
    assert hit >= 99


def test_coverage_is_monotone(stack):
    cfg, bank, comps = stack
    for pid in bank.patient_ids():
        log = run_episode(cfg, bank, base_rates(bank, pid), comps, f"mono-{pid}")
        covs = coverages(log)
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
    from elicit.episode_log import EpisodeLog

    again = EpisodeLog.from_json(log.to_json())
    assert again == log


def test_each_serialised_record_has_one_key_per_field(stack):
    from elicit.bank import Snippet
    from elicit.fidelity import FidelityConfig, SummaryStat, loo_validate
    from elicit.metrics import aggregate
    from elicit.selector import Thought

    def fields_of(record):
        return {f.name for f in dataclasses.fields(record)}

    cfg, bank, comps = stack
    log = run_episode(cfg, bank, base_rates(bank, "P001"), comps, "keys")
    doc = log.to_dict()
    assert set(doc) == fields_of(log)
    assert set(doc["turns"][0]) == fields_of(log.turns[0])
    assert set(doc["turns"][0]["thought"]) == fields_of(Thought)
    assert set(bank.snippets[0].to_dict()) == fields_of(Snippet)
    report = aggregate([log])
    doc = report.to_dict()
    assert set(doc) == fields_of(report)
    assert set(doc["episodes"][0]) == fields_of(report.episodes[0])
    fidelity = loo_validate(bank, FidelityConfig(episodes_per_patient=1, turns=2))
    doc = fidelity.to_dict()
    assert set(doc) == fields_of(fidelity)
    assert all(set(doc[name]) == fields_of(SummaryStat) for name in ("kl", "freq_error", "semantic_similarity"))


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
def test_a_topic_naming_every_strategy_raises_ontology_error_in_either_mode(synth_bank, mode):
    # each mode asks through the selector, which refuses a question naming its strategy;
    # the heuristic templates are fixed, so the ontology is at fault and the episode does not abort
    ont = default_ontology()
    names = " ".join(ont.strategies[s].display_name for s in STRATEGY_ORDER)
    ont = dataclasses.replace(ont, scenarios=tuple(
        dataclasses.replace(s, name=f"{names} talk") if s.dialogic else s for s in ont.scenarios
    ))
    cfg = EpisodeConfig(seed=5)
    comps = build_components(cfg, synth_bank, ont)
    with pytest.raises(OntologyError, match="template question leaked vocabulary"):
        run_episode(cfg, synth_bank, base_rates(synth_bank, "P001"), comps, "leaky", mode=mode)


# --- replay -------------------------------------------------------------------


def test_replay_full_coverage():
    # markers for both ground-truth traits land in the first reply so each
    # detection crosses the confirmation threshold immediately
    transcript = [
        ("How was your week?", "Busy, you know what I mean, and he said mideast on the news."),
        ("What did you see?", "Nothing much after that."),
    ]
    cfg = EpisodeConfig(max_turns=20)
    log = run_replay(transcript, frozenset({TraitId.F2, TraitId.F6}), cfg, RULES)
    assert coverages(log)[-1] == 1.0
    assert all(t.strategy == "replay" for t in log.turns)
    assert all(t.thought is None for t in log.turns)


def test_replay_late_single_detection_stays_below_threshold():
    # a first detection at turn 2 yields posterior mean 0.5, under tau
    transcript = [
        ("q1", "A plain first answer."),
        ("q2", "He said mideast on the news."),
    ]
    log = run_replay(transcript, frozenset({TraitId.F2}), EpisodeConfig(), RULES)
    assert coverages(log)[-1] == 0.0


def test_replay_no_markers_zero_coverage():
    transcript = [("q1", "Nothing special."), ("q2", "Just a normal day.")]
    log = run_replay(transcript, frozenset({TraitId.F2}), EpisodeConfig(), RULES)
    assert coverages(log)[-1] == 0.0


def test_replay_truncates_to_budget():
    transcript = [(f"q{i}", "plain reply") for i in range(25)]
    log = run_replay(transcript, frozenset({TraitId.F2}), EpisodeConfig(max_turns=20), RULES)
    assert len(log.turns) == 20


def test_replay_rejects_empty_transcript():
    with pytest.raises(ValueError):
        run_replay([], frozenset({TraitId.F2}), EpisodeConfig(), RULES)


def test_replay_transcript_for_patient(synth_bank):
    pairs = replay_transcript_for_patient(synth_bank, "P001")
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
    from elicit.patient import emit_traits

    class NoGroundTruth:
        """Duck-typed profile with no ground_truth attribute at all."""

        def __init__(self, profile):
            self.patient_id = profile.patient_id
            self.base_rates = profile.base_rates

    profile = profile_with({"F2": 0.5})
    emitted = emit_traits(NoGroundTruth(profile), (), EmissionParams(), random.Random(1), {})
    assert emitted == emit_traits(profile, (), EmissionParams(), random.Random(1), {})


@pytest.mark.parametrize("gain", [0.0, 1.5])
def test_strategy_gain_boosts_exactly_the_asked_strategys_affinity(stack, monkeypatch, gain):
    from elicit import runner

    _, _, comps = stack
    seen = []

    def emit(profile, confirmed, params, rng, offsets):
        seen.append(offsets)
        return ()

    monkeypatch.setattr(runner, "emit_traits", emit)
    profile = profile_with({"F2": 0.5})
    question = "Tell me about the people you talk to and what you say to them."
    for strategy in STRATEGY_ORDER:
        runner.patient_turn(
            comps, EmissionParams(strategy_gain=gain), profile, (), [], random.Random(1), strategy, question
        )
    affinities = [comps.ontology.strategies[s].affinity for s in STRATEGY_ORDER]
    assert seen == [{t: gain for t in affinity} if gain else {} for affinity in affinities]


# --- batches -------------------------------------------------------------------


def test_derive_seed_stable():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(2, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")


def test_batch_parallel_equals_serial(synth_bank, tmp_path):
    cfg = EpisodeConfig(seed=9)
    comps = build_components(cfg, synth_bank)
    serial = run_batch(cfg, synth_bank, "tpa", 8, parallel=1, components=comps)
    parallel = run_batch(cfg, synth_bank, "tpa", 8, parallel=4, components=comps)
    assert [l.to_json() for l in serial.logs] == [l.to_json() for l in parallel.logs]

    write_logs(serial, tmp_path / "a")
    write_logs(parallel, tmp_path / "b")
    for pa, pb in zip(sorted((tmp_path / "a").iterdir()), sorted((tmp_path / "b").iterdir())):
        assert pa.read_bytes() == pb.read_bytes()


def _memos(comps):
    return (comps.retriever._memo, comps.retriever._vectors, comps.realiser._skeletons)


class EmbeddingClient:
    """A backend client that embeds by the fallback encoder and has no completions to give."""

    def embed(self, texts):
        return [FallbackEncoder().encode(t).tolist() for t in texts]

    def complete(self, prompt, temperature):
        raise ScriptExhaustedError("no completions scripted")


@pytest.mark.parametrize("strategy_gain", [0.0, 2.0])
def test_cold_threads_fill_the_memos_as_a_serial_run_does(synth_bank, strategy_gain):
    # the remote encoder waits on a backend, so parallel episodes run on threads that share
    # one fresh set of memos from their first turn
    cfg = EpisodeConfig(seed=9, encoder_kind="remote", emission=EmissionParams(strategy_gain=strategy_gain))
    threaded = build_components(cfg, synth_bank, client=EmbeddingClient())
    parallel = run_batch(cfg, synth_bank, "tpa", 8, parallel=4, components=threaded)
    cold = build_components(cfg, synth_bank, client=EmbeddingClient())
    serial = run_batch(cfg, synth_bank, "tpa", 8, parallel=1, components=cold)
    assert [l.to_json() for l in parallel.logs] == [l.to_json() for l in serial.logs]
    assert all(_memos(threaded))


@pytest.mark.parametrize("mode", ["tpa", "random", "replay"])
def test_a_deterministic_batch_runs_on_the_calling_thread_whatever_parallel_is(synth_bank, monkeypatch, mode):
    from elicit import runner

    cfg = EpisodeConfig(seed=9)
    comps = build_components(cfg, synth_bank)
    serial = run_batch(cfg, synth_bank, mode, 4, components=comps)

    def no_pool(*args, **kwargs):
        raise AssertionError("a batch of deterministic kinds started a thread pool")

    monkeypatch.setattr(runner, "ThreadPoolExecutor", no_pool)
    parallel = run_batch(cfg, synth_bank, mode, 4, parallel=4, components=comps)
    assert [l.to_json() for l in parallel.logs] == [l.to_json() for l in serial.logs]


@pytest.mark.parametrize("role", sorted(KINDS))
def test_a_batch_with_a_kind_that_waits_on_a_backend_runs_on_a_thread_pool(synth_bank, monkeypatch, role):
    from elicit import runner

    pools = []

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(runner, "ThreadPoolExecutor", RecordingPool)
    cfg = dataclasses.replace(EpisodeConfig(seed=9), **{f"{role}_kind": KINDS[role][1]})
    comps = build_components(cfg, synth_bank, client=EmbeddingClient())
    result = run_batch(cfg, synth_bank, "tpa", 4, parallel=3, components=comps)
    assert pools == [3]
    assert len(result.logs) == 4  # the llm kinds' episodes abort on their first completion


def test_a_batch_puts_as_many_backend_requests_in_flight_as_parallel_episodes():
    # six episode threads each wait at their first request until all six are waiting there
    bank = synthesize_bank(SynthSpec(n_patients=6, snippets_per_patient=2), seed=1)
    barrier = threading.Barrier(6, timeout=10)
    waited, lock = set(), threading.Lock()
    labels = json.dumps({t.name: False for t in ALL_TRAITS})

    def transport(path, body):
        with lock:
            first = threading.get_ident() not in waited
            waited.add(threading.get_ident())
        if first:
            barrier.wait()  # BrokenBarrierError unless six requests are in flight at once
        return {"choices": [{"message": {"content": labels}}]}

    cfg = EpisodeConfig(detector_kind="llm")
    client = HttpBackend(BackendConfig(), transport)
    result = run_batch(cfg, bank, "replay", 0, parallel=6, components=build_components(cfg, None, client=client))
    assert len(waited) == 6 and not barrier.broken
    assert len(result.logs) == 6 and not any(log.aborted for log in result.logs)


def test_each_build_starts_with_memos_of_its_own(synth_bank):
    cfg = EpisodeConfig(seed=9)
    first = build_components(cfg, synth_bank)
    run_batch(cfg, synth_bank, "tpa", 2, components=first)
    assert all(_memos(first))
    second = build_components(cfg, synth_bank)
    assert not any(_memos(second))
    assert all(a is not b for a, b in zip(_memos(first), _memos(second)))


def test_a_batch_encodes_every_text_once(synth_bank, monkeypatch):
    from elicit import runner

    # the index build's doctor texts in one batch, then each question once, as first asked
    enc = CountingEncoder()
    monkeypatch.setattr(runner, "FallbackEncoder", lambda: enc)
    cfg = EpisodeConfig(seed=9)
    result = run_batch(cfg, synth_bank, "tpa", 4, components=build_components(cfg, synth_bank))
    doctor_texts = list(dict.fromkeys(s.doctor_curr for s in synth_bank.snippets))
    questions = list(dict.fromkeys(t.question for log in result.logs for t in log.turns))
    assert enc.batches == [doctor_texts]
    assert enc.texts == doctor_texts + questions


def test_batch_replay_mode(synth_bank):
    cfg = EpisodeConfig(seed=9)
    result = run_batch(cfg, synth_bank, "replay", 0, components=build_components(cfg, None))
    assert len(result.logs) == len(synth_bank.patient_ids())
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


def test_batch_unknown_mode(stack):
    cfg, bank, comps = stack
    with pytest.raises(ValueError):
        run_batch(cfg, bank, "mcts", 4, components=comps)


@pytest.mark.parametrize("parallel", [0, -3])
def test_batch_rejects_a_parallel_count_below_one(stack, parallel):
    cfg, bank, comps = stack
    with pytest.raises(ValueError, match="parallel must be >= 1"):
        run_batch(cfg, bank, "tpa", 1, parallel=parallel, components=comps)


def test_write_and_read_logs_round_trip(synth_bank, tmp_path):
    cfg = EpisodeConfig(seed=3)
    result = run_batch(cfg, synth_bank, "random", 4, components=build_components(cfg, synth_bank))
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


def _turn_zero(d):
    d["turns"][0]["turn"] = 0


def _ground_truth_entry_not_string(d):
    d["ground_truth"] = [["F1"]]


def _turn_not_an_object(d):
    d["turns"][0] = 5


@pytest.mark.parametrize(
    "corrupt,problem",
    [(_break_turn, "unknown key extra"), (_drop_turn_key, "missing key question"),
     (_drop_episode_key, "missing key episode_id"), (_unknown_trait, "ground_truth must list trait ids F1..F10"),
     (_ground_truth_entry_not_string, "ground_truth must list trait ids F1..F10, got [['F1']]"),
     (_turns_not_a_list, "turns must be list"), (_turn_not_an_object, "expected a JSON object, got int"),
     (_turn_zero, "turns must be numbered"), ("not json", "JSONDecodeError"), ("[1, 2]", "expected a JSON object"),
     (b"\xff{}", "UnicodeDecodeError")],
)
def test_read_logs_names_the_malformed_file_and_the_problem(synth_bank, tmp_path, corrupt, problem):
    cfg = EpisodeConfig(seed=3)
    paths = write_logs(run_batch(cfg, synth_bank, "random", 2, components=build_components(cfg, synth_bank)), tmp_path)
    bad = paths[1]
    if callable(corrupt):
        doc = json.loads(bad.read_text("utf-8"))
        corrupt(doc)
        bad.write_text(json.dumps(doc), encoding="utf-8")
    elif isinstance(corrupt, bytes):
        bad.write_bytes(corrupt)
    else:
        bad.write_text(corrupt, encoding="utf-8")
    with pytest.raises(LogFormatError, match=re.escape(str(bad))) as info:
        list(read_logs(tmp_path))
    assert isinstance(info.value, ValueError)
    assert problem in str(info.value)


def test_batch_skips_patients_without_ground_truth():
    from elicit.bank import SnippetBank
    from conftest import make_snippet

    bank = SnippetBank(snippets=(
        make_snippet("P001", patient_reply="Plain reply with no markers at all.", traits=()),
        make_snippet("P002", patient_reply="It is the circle of life I suppose.", traits=("F10",)),
    ))
    cfg = EpisodeConfig(seed=1)
    result = run_batch(cfg, bank, "tpa", 2, components=build_components(cfg, bank))
    assert len(result.logs) == 1
    assert result.logs[0].patient_id == "P002"
    assert len(result.skipped) == 1
    assert "P001" in result.skipped[0]


def test_full_llm_stack_with_scripted_backend(synth_bank):
    # the whole loop wired through generation backends, served by a script
    import json as jsonlib

    from conftest import ScriptedBackend

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
    comps = build_components(cfg, synth_bank, client=client)
    profile = profile_with({"F6": 0.5}, patient_id="PX")
    log = run_episode(cfg, synth_bank, profile, comps, "llm-ep")
    assert not log.aborted
    assert len(log.turns) == turns
    assert log.turns[0].strategy == "open_ended"
    assert log.turns[0].question == "Tell me a bit about your week."
    assert log.turns[0].response == realise
    # F6 detected at turn 1 confirms immediately and fills coverage
    assert coverages(log)[-1] == 1.0
    assert log.turns[0].thought["confirmed_analysis"] == "none yet"


def test_a_wrong_typed_detector_label_aborts_the_episode_with_a_typed_reason(synth_bank):
    from conftest import ScriptedBackend

    labels = json.dumps({t.name: "false" for t in ALL_TRAITS})
    client = ScriptedBackend(script=["It was a quiet week.", labels, labels])
    cfg = EpisodeConfig(max_turns=3, seed=2, realiser_kind="llm", detector_kind="llm")
    comps = build_components(cfg, synth_bank, client=client)
    log = run_episode(cfg, synth_bank, profile_with({"F6": 0.5}), comps, "llm-ep")
    assert log.aborted and log.turns == ()
    assert log.abort_reason.startswith("DetectorParseError: unusable reply after one retry: F1 must be a bool")
    assert len(client.requests) == 3


def test_a_blank_realiser_reply_aborts_the_episode_with_a_typed_reason(synth_bank):
    from conftest import ScriptedBackend

    client = ScriptedBackend(script=["It was a quiet week, you know what I mean.", " ", "\n"])
    cfg = EpisodeConfig(max_turns=3, seed=2, realiser_kind="llm")
    comps = build_components(cfg, synth_bank, client=client)
    log = run_episode(cfg, synth_bank, profile_with({"F6": 0.5}), comps, "llm-ep")
    assert log.aborted and [t.response for t in log.turns] == ["It was a quiet week, you know what I mean."]
    assert log.abort_reason == "RealiserError: unusable reply after one retry: reply is empty"
    assert len(client.requests) == 3


def test_replay_mode_aborts_an_episode_on_an_unusable_detector_reply_and_keeps_the_others():
    from pathlib import Path

    from conftest import ScriptedBackend
    from elicit.bank import ingest

    bank = ingest(Path(__file__).parent / "data" / "golden_bank.jsonl")
    labels = json.dumps({t.name: t.name == "F6" for t in ALL_TRAITS})
    bad = json.dumps({t.name: "no" for t in ALL_TRAITS})
    # two exchanges for P001, then two for P002, whose second reply is unusable twice
    client = ScriptedBackend(script=[labels, labels, labels, bad, bad])
    cfg = EpisodeConfig(detector_kind="llm")
    result = run_batch(cfg, bank, "replay", 0, components=build_components(cfg, bank, client=client))
    first, second = result.logs
    assert (first.patient_id, first.aborted, len(first.turns)) == ("P001", False, 2)
    assert (second.patient_id, second.aborted, len(second.turns)) == ("P002", True, 1)
    assert second.abort_reason == "DetectorParseError: unusable reply after one retry: F1 must be a bool, got 'no'"
    assert coverages(second)[0] == 1.0


@pytest.mark.parametrize("role", ["encoder", "selector", "realiser", "detector"])
def test_the_config_rejects_an_unknown_kind(role):
    with pytest.raises(InputError, match=f"unknown {role} kind 'bert'"):
        EpisodeConfig(**{f"{role}_kind": "bert"})
    with pytest.raises(InputError, match=f"unknown {role} kind 'LLM'"):
        dataclasses.replace(EpisodeConfig(), **{f"{role}_kind": "LLM"})


def test_encoder_kind_is_checked_when_components_are_built(synth_bank):
    with pytest.raises(ValueError, match="needs a backend client"):
        build_components(EpisodeConfig(encoder_kind="remote"), synth_bank)
    for role in ("selector", "realiser", "detector"):
        with pytest.raises(ValueError, match=f"{role} kind 'llm' needs a backend client"):
            build_components(EpisodeConfig(**{f"{role}_kind": "llm"}), synth_bank)
    with pytest.raises(ValueError, match="unknown encoder kind"):
        build_components(EpisodeConfig(encoder_kind="bert"), synth_bank)
