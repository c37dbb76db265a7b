import json
import math
import os
import random
import statistics
import threading
import time
import tracemalloc
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elicit import fanout, fidelity
from elicit.bank import SnippetBank, SynthSpec, synthesize_bank, trait_frequencies
from elicit.fidelity import (
    MIN_PATIENTS_PER_TRAIT,
    FidelityConfig,
    InsufficientPatientsError,
    SummaryStat,
    _semantic_similarity,
    frequency_error,
    kl_divergence,
    loo_validate,
    trait_auc,
)
from elicit.ontology import ALL_TRAITS, TraitId
from elicit.retrieval import AnchorRetriever, FallbackEncoder, cosine

from conftest import CountingEncoder, make_snippet

ENC = FallbackEncoder()


def profile(freqs):
    base = {t: 0.0 for t in ALL_TRAITS}
    for k, v in freqs.items():
        base[TraitId.parse(k) if isinstance(k, str) else k] = v
    return base


def test_kl_identity_zero():
    p = profile({"F1": 0.5, "F2": 0.5})
    assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-9)


def test_kl_hand_value():
    # normalised pair (0.5, 0.5) vs (0.9, 0.1): 0.5 ln(5/9) + 0.5 ln 5
    p = profile({"F1": 0.5, "F2": 0.5})
    q = profile({"F1": 0.9, "F2": 0.1})
    expected = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
    assert expected == pytest.approx(0.5108, abs=1e-3)
    assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-3)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=10, max_size=10),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=10, max_size=10),
)
def test_kl_nonnegative(ps, qs):
    p = profile(dict(zip(ALL_TRAITS, ps)))
    q = profile(dict(zip(ALL_TRAITS, qs)))
    assert kl_divergence(p, q) >= -1e-12


def test_frequency_error_identity():
    p = profile({"F1": 0.4})
    assert frequency_error(p, p) == 0.0


def test_frequency_error_hand_value():
    p = profile({"F1": 0.5, "F2": 0.1})
    q = profile({"F1": 0.4, "F2": 0.2})
    assert frequency_error(p, q) == pytest.approx(0.02)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=10, max_size=10),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=10, max_size=10),
)
def test_frequency_error_bounded(ps, qs):
    p = profile(dict(zip(ALL_TRAITS, ps)))
    q = profile(dict(zip(ALL_TRAITS, qs)))
    assert 0.0 <= frequency_error(p, q) <= 1.0


# --- AUC ----------------------------------------------------------------------


def test_auc_perfect_separation():
    scores = {"a": 0.9, "b": 0.8, "c": 0.1, "d": 0.2}
    labels = {"a": True, "b": True, "c": False, "d": False}
    assert trait_auc(scores, labels) == 1.0


def test_auc_all_ties():
    scores = {"a": 0.5, "b": 0.5, "c": 0.5}
    labels = {"a": True, "b": False, "c": False}
    assert trait_auc(scores, labels) == 0.5


def test_auc_tie_case():
    # pairs: (0.9 > 0.7) = 1, (0.7 == 0.7) = 0.5 -> 1.5 of 2 pairs
    scores = {"a": 0.9, "b": 0.7, "c": 0.7}
    labels = {"a": True, "b": True, "c": False}
    assert trait_auc(scores, labels) == pytest.approx(0.75)


def test_auc_undefined_single_class():
    assert trait_auc({"a": 0.5}, {"a": True}) is None
    assert trait_auc({"a": 0.5}, {"a": False}) is None


def _rank_auc(scores, labels):
    """Independent oracle: Mann-Whitney U from average ranks with tie handling."""
    items = sorted(scores.items(), key=lambda kv: kv[1])
    ranks = {}
    i = 0
    while i < len(items):
        j = i
        while j < len(items) and items[j][1] == items[i][1]:
            j += 1
        avg = (i + 1 + j) / 2  # ranks are 1-based
        for k in range(i, j):
            ranks[items[k][0]] = avg
        i = j
    n_pos = sum(labels.values())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    rank_sum = sum(ranks[k] for k, v in labels.items() if v)
    u = rank_sum - n_pos * (n_pos + 1) / 2
    return u / (n_pos * n_neg)


def test_auc_matches_rank_oracle_fuzzed():
    rng = random.Random(123)
    for _ in range(1000):
        n = rng.randint(2, 12)
        scores = {f"p{i}": rng.choice([0.1, 0.25, 0.5, 0.75, 0.9]) for i in range(n)}
        labels = {k: rng.random() < 0.5 for k in scores}
        got = trait_auc(scores, labels)
        want = _rank_auc(scores, labels)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-12)


def test_auc_label_permutation_is_chance():
    rng = random.Random(55)
    scores = {f"p{i}": rng.random() for i in range(200)}
    labels = {k: i < 100 for i, k in enumerate(scores)}
    shuffled = list(labels.values())
    rng.shuffle(shuffled)
    permuted = dict(zip(scores, shuffled))
    assert trait_auc(scores, permuted) == pytest.approx(0.5, abs=0.1)


# --- summary statistics ---------------------------------------------------------


def test_summary_stat_ci_formula():
    values = [0.1, 0.5, 0.4, 0.8, 0.3]
    stat = SummaryStat.of(values)
    assert stat.ci95 == pytest.approx(
        1.96 * statistics.stdev(values) / math.sqrt(len(values)), abs=1e-9
    )
    assert stat.median == statistics.median(values)


# --- leave-one-out harness ------------------------------------------------------


@pytest.fixture(scope="module")
def loo_bank():
    return synthesize_bank(SynthSpec(n_patients=6, snippets_per_patient=10), seed=99)


def test_loo_requires_two_patients():
    bank = synthesize_bank(SynthSpec(n_patients=1, snippets_per_patient=5), seed=1)
    with pytest.raises(InsufficientPatientsError):
        loo_validate(bank, FidelityConfig())


def test_loo_two_patient_bank_has_two_folds():
    bank = synthesize_bank(SynthSpec(n_patients=2, snippets_per_patient=6), seed=3)
    report = loo_validate(bank, FidelityConfig(episodes_per_patient=1, turns=10))
    assert report.n_patients == 2
    assert report.kl.n == 2


def test_loo_self_consistency_ceiling(loo_bank):
    # simulator parameters are fitted to this very bank: KL near 0, AUC near 1
    report = loo_validate(loo_bank, FidelityConfig(episodes_per_patient=2, seed=5))
    assert report.kl.mean < 0.3
    assert report.auc_overall is not None and report.auc_overall > 0.9
    assert report.freq_error.mean < 0.15
    assert report.thresholds_met["kl_divergence"]
    assert report.thresholds_met["auc"]


def test_loo_raises_when_an_anchor_comes_from_the_held_out_patient(loo_bank, monkeypatch):
    from elicit.retrieval import AnchorRetriever

    # the fake leaves the audit log alone: the check reads the anchor itself
    own = lambda self, query, exclude_patient: (self.bank.patient_snippets(exclude_patient)[0], 1.0)
    monkeypatch.setattr(AnchorRetriever, "retrieve", own)
    first = loo_bank.patient_ids()[0]
    with pytest.raises(AssertionError, match=f"retrieval leaked an anchor from held-out {first}"):
        loo_validate(loo_bank, FidelityConfig(episodes_per_patient=1, turns=2))


def test_loo_encodes_every_text_once(monkeypatch):
    from elicit import runner

    # per process: the index build's doctor texts in one batch, then each question once. Per fold:
    # the fold's distinct real and simulated replies in one batch, dropped when the fold ends, so
    # a reply two folds meet is encoded by each. A forked child encodes what it meets again; this
    # bank's 36 turns are below MIN_TURNS_PER_PROCESS, so the run stays on the calling process.
    bank = synthesize_bank(SynthSpec(n_patients=3, snippets_per_patient=6), seed=5)
    enc = CountingEncoder()
    monkeypatch.setattr(runner, "FallbackEncoder", lambda: enc)
    loo_validate(bank, FidelityConfig(episodes_per_patient=2, turns=6))
    index, *folds = enc.batches
    assert index == list(dict.fromkeys(s.doctor_curr for s in bank.snippets))
    assert len(folds) == len(bank.patient_ids())
    for pid, replies in zip(bank.patient_ids(), folds):
        assert len(replies) == len(set(replies))
        assert set(replies) & {s.patient_reply for s in bank.patient_snippets(pid)}
    assert len(set(chain.from_iterable(folds))) < sum(map(len, folds))  # two folds of this bank share a reply
    questions = Counter(enc.texts) - Counter(chain.from_iterable(enc.batches))
    assert questions and set(questions.values()) == {1}


def test_loo_memory_does_not_grow_with_the_number_of_folds(monkeypatch):
    # each fold's reply vectors are dropped when it ends; at 40 patients a cache kept across
    # folds held ~2.7 MB more than at 10, while what the folds keep grows by ~0.4 MB
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 1)
    cfg = FidelityConfig(episodes_per_patient=2, turns=20)
    peaks = []
    for n_patients in (10, 40):
        bank = synthesize_bank(SynthSpec(n_patients=n_patients, snippets_per_patient=4), seed=3)
        tracemalloc.start()
        try:
            loo_validate(bank, cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1_000_000, peaks


def test_loo_deterministic(loo_bank):
    cfg = FidelityConfig(episodes_per_patient=1, turns=10, seed=8)
    a = loo_validate(loo_bank, cfg)
    b = loo_validate(loo_bank, cfg)
    assert a.to_dict() == b.to_dict()


def test_loo_excludes_rare_traits_from_overall(loo_bank):
    cfg = FidelityConfig(episodes_per_patient=1, turns=10, seed=8)
    report = loo_validate(loo_bank, cfg)
    assert set(report.per_trait_auc) == {t.name for t in ALL_TRAITS}
    included = [
        e["auc"] for e in report.per_trait_auc.values()
        if e["auc"] is not None and e["n_patients"] >= MIN_PATIENTS_PER_TRAIT
    ]
    # overall pools exactly the traits passing the rarity bar
    assert report.auc_overall == pytest.approx(statistics.mean(included))


def test_loo_strategy_breakdown_structure(loo_bank):
    report = loo_validate(loo_bank, FidelityConfig(episodes_per_patient=1, turns=12, seed=8))
    assert report.strategy_breakdown
    for label, freqs in report.strategy_breakdown.items():
        assert set(freqs) == {t.name for t in ALL_TRAITS}
        assert all(0.0 <= v <= 1.0 for v in freqs.values())
    doc = report.to_dict()
    assert "strategy_breakdown" in doc


def test_trait_frequencies_count_a_patients_snippets(loo_bank):
    pid = loo_bank.patient_ids()[0]
    snippets = loo_bank.patient_snippets(pid)
    freqs = trait_frequencies(s.traits for s in snippets)
    for t in ALL_TRAITS:
        expected = sum(1 for s in snippets if t in s.traits) / len(snippets)
        assert freqs[t] == pytest.approx(expected)


# --- folds fanned out over forked processes --------------------------------------


@pytest.fixture
def forks(monkeypatch):
    """Lets a run take `n` processes on any host, and counts the children it forks."""
    forked = []
    real_fork = os.fork

    def counting_fork():
        forked.append(1)
        return real_fork()

    def allow(n):
        monkeypatch.setattr(fanout, "usable_cpus", lambda: n)
        monkeypatch.setattr(fidelity, "MIN_TURNS_PER_PROCESS", 1)
        forked.clear()
        return forked

    monkeypatch.setattr(os, "fork", counting_fork)
    return allow


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _leak_for(patient_id):
    """A retriever whose anchor for `patient_id` alone is one of that patient's own snippets."""
    retrieve = AnchorRetriever.retrieve

    def leaky(self, query, exclude_patient):
        if exclude_patient == patient_id:
            return self.bank.patient_snippets(exclude_patient)[0], 1.0
        return retrieve(self, query, exclude_patient)

    return leaky


@pytest.fixture(scope="module")
def nine_patients():
    return synthesize_bank(SynthSpec(n_patients=9, snippets_per_patient=6), seed=13)


def test_loo_writes_the_same_bytes_on_one_two_and_three_processes(nine_patients, forks):
    cfg = FidelityConfig(episodes_per_patient=1, turns=6, seed=4)
    written = []
    for n in (1, 2, 3):
        forked = forks(n)
        written.append(json.dumps(loo_validate(nine_patients, cfg).to_dict(), sort_keys=True, indent=1))
        assert len(forked) == n - 1
        _no_child_left()
    assert written[0] == written[1] == written[2]


def test_a_leak_in_a_childs_fold_reaches_the_caller(nine_patients, forks, monkeypatch):
    last = nine_patients.patient_ids()[-1]
    monkeypatch.setattr(AnchorRetriever, "retrieve", _leak_for(last))
    forked = forks(2)
    with pytest.raises(AssertionError, match=f"retrieval leaked an anchor from held-out {last}"):
        loo_validate(nine_patients, FidelityConfig(episodes_per_patient=1, turns=4))
    assert len(forked) == 1
    _no_child_left()


def test_a_leak_in_the_callers_own_chunk_leaves_no_child(nine_patients, forks, monkeypatch):
    first = nine_patients.patient_ids()[0]
    monkeypatch.setattr(AnchorRetriever, "retrieve", _leak_for(first))
    forked = forks(3)
    with pytest.raises(AssertionError, match=f"retrieval leaked an anchor from held-out {first}"):
        loo_validate(nine_patients, FidelityConfig(episodes_per_patient=1, turns=4))
    assert len(forked) == 2
    _no_child_left()


@pytest.mark.parametrize("why", ["another thread runs", "no os.fork"])
def test_fan_out_maps_on_the_calling_process_when_it_cannot_fork_safely(forks, monkeypatch, why):
    forked = forks(3)
    release = threading.Event()
    worker = threading.Thread(target=release.wait, args=(10,))
    if why == "no os.fork":
        monkeypatch.delattr(os, "fork")
    else:
        worker.start()
    try:
        assert fanout.fan_out(abs, [-3, -2, -1], 3) == [3, 2, 1]
    finally:
        release.set()
        if worker.is_alive():
            worker.join(timeout=10)
    assert not forked and not worker.is_alive()


def test_a_fork_that_fails_leaves_no_child_and_no_pipe(monkeypatch):
    real_fork = os.fork
    calls = []

    def second_fails():
        calls.append(1)
        if len(calls) == 2:
            raise BlockingIOError("fork: resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", second_fails)
    fds = set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
    with pytest.raises(BlockingIOError, match="resource temporarily unavailable"):
        fanout.fan_out(abs, [1, 2, 3], 3)
    _no_child_left()
    if fds is not None:
        assert set(os.listdir("/proc/self/fd")) == fds


def _fails_at_once_or_sleeps(x):
    if x == 0:
        raise ValueError("item 0")
    time.sleep(20)


def test_a_failure_in_the_callers_own_chunk_kills_the_children_rather_than_waiting():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="item 0"):
        fanout.fan_out(_fails_at_once_or_sleeps, [0, 1, 2], 3)
    assert time.perf_counter() - start < 10
    _no_child_left()


class _TwoArgError(Exception):
    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def _fails_on_odd_items_from_3(x):
    if x >= 3 and x % 2:
        raise ValueError(f"item {x}")
    return x * x


def test_fan_out_maps_in_order_and_raises_the_first_failing_item():
    assert fanout.fan_out(abs, range(-4, 3), 3) == [4, 3, 2, 1, 0, 1, 2]
    # chunks [0, 1], [2, 3], [4, 5]: items 3 and 5 fail in two children, and 3 comes first
    with pytest.raises(ValueError, match="item 3"):
        fanout.fan_out(_fails_on_odd_items_from_3, list(range(6)), 3)
    _no_child_left()


def test_fan_out_keeps_the_message_of_an_exception_that_cannot_be_unpickled():
    def fail(x):
        if x:
            raise _TwoArgError("E7", "bad item")
        return x

    with pytest.raises(RuntimeError, match="_TwoArgError: E7: bad item"):
        fanout.fan_out(fail, [0, 1], 2)
    _no_child_left()


# --- semantic similarity ----------------------------------------------------------


def _scalar_semantic_similarity(bank, patient_id, sim_pairs, encoder):
    """The oracle: every real text encoded, and one scalar `cosine` per real snippet."""
    real = bank.patient_snippets(patient_id)
    q_embs = [encoder.encode(s.doctor_curr) for s in real]
    r_embs = [encoder.encode(s.patient_reply) for s in real]
    scores = []
    for q_sim, r_sim in sim_pairs:
        qe = encoder.encode(q_sim)
        best = max(range(len(real)), key=lambda i: (cosine(qe, q_embs[i]), -i))
        scores.append(cosine(encoder.encode(r_sim), r_embs[best]))
    return statistics.mean(scores)


def _bank(rows):
    return SnippetBank(snippets=tuple(
        make_snippet(patient_id=pid, doctor_curr=doctor, patient_reply=reply) for pid, doctor, reply in rows
    ))


def _assert_matches_the_oracle(bank, sim_pairs):
    retriever = AnchorRetriever(bank, ENC)
    for pid in bank.patient_ids():
        assert _semantic_similarity(retriever, pid, sim_pairs) == _scalar_semantic_similarity(
            bank, pid, sim_pairs, ENC
        )


def test_semantic_similarity_ties_go_to_the_patients_first_repeat_of_a_doctor_text():
    bank = _bank([
        ("A", "how was school today", "the teacher was strict"),
        ("B", "how was school today", "we went to the lake"),
        ("A", "tell me about your weekend", "we went to the lake"),
        ("A", "how was school today", "i drew a cartoon"),
        ("A", "how was school today", "my friends were lonely"),
    ])
    retriever = AnchorRetriever(bank, ENC)
    # the first of A's three equal questions holds the reply, so only it scores 1.0
    assert _semantic_similarity(retriever, "A", [("how was school today", "the teacher was strict")]) == 1.0
    _assert_matches_the_oracle(bank, [
        ("how was school today", "the teacher was strict"),
        ("school", "i drew a cartoon"),
        ("your weekend at school", "we went to the lake"),
        ("picture", "story time"),  # no shared token: every row scores 0.0
    ])


def test_semantic_similarity_when_every_question_of_a_patient_is_one_text():
    bank = _bank([
        ("A", "tell me about your weekend", f"reply {word}") for word in ("lake", "school", "work", "story")
    ] + [("B", "how was school today", "reply school")])
    retriever = AnchorRetriever(bank, ENC)
    for question in ("tell me about your weekend", "how was school today", "lonely"):
        assert _semantic_similarity(retriever, "A", [(question, "reply lake")]) == 1.0
    _assert_matches_the_oracle(bank, [("weekend", "reply work"), ("lonely", "reply story"), ("weekend", "no")])


def test_semantic_similarity_rescores_ulp_near_ties_exactly():
    # one token bag at two multiplicities points one way, so its cosines to a query differ by an ulp:
    # the product scores the two rows equal, and only the exact re-score picks the second
    single, tripled = "school work", "school work school work school work"
    q = ENC.encode("lake school")
    assert 0 < cosine(q, ENC.encode(tripled)) - cosine(q, ENC.encode(single)) < 1e-12
    bank = _bank([("A", single, "a lake"), ("A", tripled, "a story"), ("B", "lake", "a picture")])
    retriever = AnchorRetriever(bank, ENC)
    assert _semantic_similarity(retriever, "A", [("lake school", "a story")]) == 1.0
    _assert_matches_the_oracle(bank, [("lake school", "a story"), ("school", "a lake")])


WORDS = ["school", "work", "lake", "picture", "friends", "lonely", "story", "cartoon"]


def _text(rng, pool):
    words = rng.choice(pool)
    kind = rng.randrange(4)
    if kind == 1:  # reordered: the same vector under another string
        words = rng.sample(words, len(words))
    elif kind == 2:  # the same bag repeated: the same direction, to within ulps
        words = words * rng.randint(2, 7)
    elif kind == 3:  # one token away
        words = words + [rng.choice(WORDS)]
    return " ".join(words)


@settings(max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(2, 40), n_texts=st.integers(1, 8))
def test_semantic_similarity_matches_the_scalar_oracle_on_drawn_banks(rng, n, n_texts):
    pool = [[rng.choice(WORDS) for _ in range(rng.randint(1, 4))] for _ in range(n_texts)]
    patients = [f"P{k}" for k in range(1, rng.randint(1, 4) + 1)]
    bank = _bank([(rng.choice(patients), _text(rng, pool), _text(rng, pool)) for _ in range(n)])
    sim_pairs = [
        (_text(rng, pool) if rng.random() < 0.8 else rng.choice(WORDS), _text(rng, pool))
        for _ in range(rng.randint(1, 12))
    ]
    _assert_matches_the_oracle(bank, sim_pairs)


def test_semantic_similarity_reads_the_real_questions_from_the_index_and_encodes_each_question_once():
    bank = synthesize_bank(SynthSpec(n_patients=4, snippets_per_patient=8), seed=7)
    pid = bank.patient_ids()[0]
    doctor_texts = {s.doctor_curr for s in bank.patient_snippets(pid)}
    questions = ["how was school today", "tell me about the lake", "how was school today", "what is your story"]
    assert not doctor_texts & set(questions)
    sim_pairs = [(q, f"simulated reply {i}") for i, q in enumerate(questions)]
    enc = CountingEncoder()
    retriever = AnchorRetriever(bank, enc)
    enc.texts.clear()
    assert _semantic_similarity(retriever, pid, sim_pairs) == _scalar_semantic_similarity(bank, pid, sim_pairs, ENC)
    assert not doctor_texts & set(enc.texts)
    assert sorted(t for t in enc.texts if t in questions) == sorted(set(questions))
    # besides: each simulated reply, and the real reply of at most one snippet per distinct question
    assert len(enc.texts) <= 2 * len(set(questions)) + len(sim_pairs)
