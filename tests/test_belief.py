import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betaln, digamma

from elicit import belief
from elicit.belief import (
    MAX_TURNS,
    BeliefState,
    beta_entropy,
    priority_traits,
    update,
)
from elicit.detector import RuleDetector
from elicit.ontology import ALL_TRAITS, TRAIT_NAMES, TraitId, default_ontology
from elicit.runner import EpisodeConfig, run_replay


def detections(positive=()):
    """One turn's labels, ten bools in trait order, with `positive` labelled true."""
    pos = {TraitId.parse(t) if isinstance(t, str) else t for t in positive}
    return tuple(t in pos for t in ALL_TRAITS)


def counts(state, trait):
    """Trait's Beta(alpha, beta) as floats, from its positive count and the turn count."""
    p = state.positives[trait - 1]
    return 1.0 + p, 1.0 + state.turns - p


def mean(state, trait):
    alpha, beta = counts(state, trait)
    return alpha / (alpha + beta)


def quad_entropy(alpha, beta):
    """Numerical oracle: -integral of p(x) ln p(x) over (0,1)."""
    log_b = math.lgamma(alpha) + math.lgamma(beta) - math.lgamma(alpha + beta)

    def neg_plogp(x):
        logp = (alpha - 1) * math.log(x) + (beta - 1) * math.log(1 - x) - log_b
        return -math.exp(logp) * logp

    val, _ = quad(neg_plogp, 0.0, 1.0, limit=200)
    return val


def scipy_entropy(alpha, beta):
    """Reference: the closed form on scipy's betaln and digamma."""
    return float(
        betaln(alpha, beta)
        - (alpha - 1.0) * digamma(alpha)
        - (beta - 1.0) * digamma(beta)
        + (alpha + beta - 2.0) * digamma(alpha + beta)
    )


def test_fresh_state_is_the_uniform_prior():
    state = BeliefState(tau=0.9)
    assert (state.positives, state.turns, state.tau, state.confirmed) == ((0,) * 10, 0, 0.9, frozenset())
    assert all(counts(state, t) == (1.0, 1.0) for t in ALL_TRAITS)


def test_single_positive_confirms():
    state = update(BeliefState(), detections(["F2"]))
    assert counts(state, TraitId.F2) == (2.0, 1.0)
    assert mean(state, TraitId.F2) == pytest.approx(2 / 3)
    assert TraitId.F2 in state.confirmed


def test_single_negative_does_not_confirm():
    state = update(BeliefState(), detections())
    assert counts(state, TraitId.F2) == (1.0, 2.0)
    assert mean(state, TraitId.F2) == pytest.approx(1 / 3)
    assert TraitId.F2 not in state.confirmed


def test_twenty_negative_turns():
    # pure-negative evidence is symmetric across traits: Beta(1, 1+20) everywhere
    state = BeliefState()
    for _ in range(20):
        state = update(state, detections())
    for t in ALL_TRAITS:
        assert counts(state, t) == (1.0, 21.0)
        assert mean(state, t) == pytest.approx(1 / 22)
    assert not state.confirmed


@pytest.mark.parametrize(
    "labels",
    [dict.fromkeys(ALL_TRAITS, False), (False,) * 9, (False,) * 11],
    ids=["trait-to-bool-dict", "nine-bools", "eleven-bools"],
)
def test_update_takes_only_a_tuple_of_ten_labels(labels):
    # a bare zip fold takes all three: it would add a dict's trait ids to the
    # counts, and silently drop a trait or a label for the wrong length
    with pytest.raises(ValueError):
        update(BeliefState(), labels)


def test_posterior_means():
    state = BeliefState()
    assert mean(state, TraitId.F1) == pytest.approx(0.5)
    state = update(state, detections(["F1"]))
    assert mean(state, TraitId.F1) == pytest.approx(0.6667, abs=1e-4)
    assert mean(update(BeliefState(), detections()), TraitId.F1) == pytest.approx(1 / 3)
    state = update(update(BeliefState(), detections()), detections())
    assert mean(state, TraitId.F1) == pytest.approx(0.25)


def test_a_positive_at_exactly_tau_does_not_confirm():
    # mean (1 + p) / (2 + n) must exceed tau: 2/4 after a miss and a hit is not over 0.5
    state = update(update(BeliefState(tau=0.5), detections()), detections(["F3"]))
    assert mean(state, TraitId.F3) == 0.5
    assert TraitId.F3 not in state.confirmed


def test_entropy_uniform_prior():
    assert beta_entropy(1, 1) == pytest.approx(0.0, abs=1e-9)


def test_entropy_beta22_vs_oracle():
    assert beta_entropy(2, 2) == pytest.approx(-0.125, abs=1e-3)
    assert beta_entropy(2, 2) == pytest.approx(quad_entropy(2, 2), abs=1e-3)


def test_entropy_matches_quadrature_grid():
    for a in range(1, 6):
        for b in range(1, 6):
            assert beta_entropy(a, b) == pytest.approx(quad_entropy(a, b), abs=1e-3)


def test_entropy_concentrates_with_evidence():
    assert beta_entropy(10, 10) < beta_entropy(2, 2)


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(min_value=1.0, max_value=50.0),
    b=st.floats(min_value=1.0, max_value=50.0),
)
def test_entropy_symmetry(a, b):
    assert beta_entropy(a, b) == beta_entropy(b, a)


def test_entropy_matches_scipy_closed_form():
    for a in range(1, 121):
        for b in range(1, 121):
            assert beta_entropy(float(a), float(b)) == pytest.approx(scipy_entropy(a, b), abs=1e-9), (a, b)
    rng = random.Random(2718)
    for _ in range(2000):
        a, b = rng.uniform(1.0, 50.0), rng.uniform(1.0, 50.0)
        assert beta_entropy(a, b) == pytest.approx(scipy_entropy(a, b), abs=1e-9), (a, b)


@pytest.mark.parametrize("bad", [0.0, -1.0, -1e300, float("nan")])
def test_entropy_rejects_non_positive_parameters(bad):
    with pytest.raises(ValueError):
        beta_entropy(bad, 2.0)
    with pytest.raises(ValueError):
        beta_entropy(2.0, bad)


def test_entropy_decreases_along_diagonal():
    values = [beta_entropy(n, n) for n in range(1, 12)]
    assert all(x > y for x, y in zip(values, values[1:]))


def test_priority_fresh_state():
    assert priority_traits(BeliefState(), 4) == [TraitId.F1, TraitId.F2, TraitId.F3, TraitId.F4]


def test_priority_excludes_confirmed():
    state = BeliefState(confirmed=frozenset({TraitId.F1}))
    assert priority_traits(state, 4) == [TraitId.F2, TraitId.F3, TraitId.F4, TraitId.F5]


def test_priority_fewer_than_k():
    state = BeliefState(confirmed=frozenset(ALL_TRAITS[:8]))
    assert priority_traits(state, 4) == [TraitId.F9, TraitId.F10]


@pytest.mark.parametrize("k", [0, -1])
def test_priority_rejects_k_below_one(k):
    with pytest.raises(ValueError):
        priority_traits(BeliefState(), k)


# Integer pairs with a + b <= 22 where scipy's rounding gave H(a, b) != H(b, a).
MIRROR_PAIRS = [
    (2, 4), (3, 4), (2, 6), (3, 5), (2, 8), (4, 7), (6, 7), (2, 12), (4, 10), (6, 8), (5, 11),
    (2, 15), (6, 11), (2, 16), (5, 13), (4, 16), (6, 15), (8, 13), (5, 17), (7, 15), (8, 14),
]


@pytest.mark.parametrize("a, b", MIRROR_PAIRS)
def test_priority_mirror_pairs_tie_by_ascending_index(a, b):
    # after a + b - 2 turns, a - 1 positives give Beta(a, b) and b - 1 give Beta(b, a)
    mirrored = {TraitId.F1: a - 1, TraitId.F2: b - 1, TraitId.F3: b - 1, TraitId.F4: a - 1}
    state = BeliefState(
        positives=tuple(mirrored.get(t, 0) for t in ALL_TRAITS),
        turns=a + b - 2,
        confirmed=frozenset(ALL_TRAITS) - set(mirrored),
    )
    assert counts(state, TraitId.F1) == counts(state, TraitId.F2)[::-1] == (a, b)
    assert priority_traits(state, 4) == [TraitId.F1, TraitId.F2, TraitId.F3, TraitId.F4]


def _brute_force_priority(state, k):
    scored = []
    for t in ALL_TRAITS:
        if t in state.confirmed:
            continue
        scored.append((-beta_entropy(*counts(state, t)), int(t), t))
    scored.sort()
    return [t for _, _, t in scored[:k]]


def test_priority_matches_brute_force_fuzzed():
    rng = random.Random(314)
    for _ in range(200):
        n = rng.randint(0, 24)
        positives = tuple(rng.randint(0, n) for _ in ALL_TRAITS)
        confirmed = frozenset(t for t in ALL_TRAITS if rng.random() < 0.3)
        state = BeliefState(positives=positives, turns=n, tau=0.6, confirmed=confirmed)
        k = rng.randint(1, 10)
        got = priority_traits(state, k)
        assert got == _brute_force_priority(state, k)
        assert not set(got) & confirmed


def test_priority_key_orders_as_entropy_up_to_the_turn_bound():
    # the key (|2p - n|, index) sorts any traits as (-beta_entropy, index) does
    # exactly when, at each n, the entropy ties to the bit for p and n - p and
    # rises strictly from p = 0 to the centre: checked for every n and p in bounds
    rng = random.Random(26)
    for n in range(MAX_TURNS + 1):
        h = [beta_entropy(1.0 + p, 1.0 + n - p) for p in range(n + 1)]
        assert all(h[p] == h[n - p] for p in range(n + 1)), n
        assert all(h[p] < h[p + 1] for p in range(n // 2)), n
        low = [rng.randint(0, n) for _ in range(5)]
        state = BeliefState(positives=tuple(low + [n - p for p in reversed(low)]), turns=n)
        assert priority_traits(state, 10) == _brute_force_priority(state, 10), n


def test_update_order_insensitive_over_multiset():
    maps = [detections(["F1"]), detections(["F2", "F3"]), detections(), detections(["F1"])]
    rng = random.Random(5)
    final = []
    for _ in range(5):
        order = maps[:]
        rng.shuffle(order)
        state = BeliefState()
        for m in order:
            state = update(state, m)
        final.append((state.positives, state.turns))
    assert all(f == final[0] for f in final)
    assert final[0] == ((2, 1, 1, 0, 0, 0, 0, 0, 0, 0), 4)


def test_confirmation_latch_is_monotone():
    state = update(BeliefState(), detections(["F4"]))
    assert TraitId.F4 in state.confirmed
    for _ in range(30):
        state = update(state, detections())
    # mean is well below tau now, but confirmation latched
    assert mean(state, TraitId.F4) < state.tau
    assert TraitId.F4 in state.confirmed


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sets(st.sampled_from(list(ALL_TRAITS))), min_size=1, max_size=15))
def test_confirmed_monotone_over_any_history(history):
    state = BeliefState()
    previous = frozenset()
    for positives in history:
        state = update(state, detections(positives))
        assert state.confirmed >= previous
        previous = state.confirmed


def test_a_log_folds_back_to_its_beta_snapshots():
    # a log keeps each turn's detection labels and confirmed traits, not the
    # Beta counts: folding `update` over the labels from a fresh state at the
    # log's tau gives back each turn's confirmed list and the counts
    transcript = [
        ("How was your week?", "Busy, you know what I mean."),  # F6
        ("And then?", "He said mideast on the news."),  # F2, a turn late: mean 0.5, under tau
        ("Anything else?", "Nothing much."),
    ]
    log = run_replay(transcript, frozenset({TraitId.F2, TraitId.F6}), EpisodeConfig(), RuleDetector(default_ontology()))
    state = BeliefState(tau=log.tau)
    for turn in log.turns:
        state = update(state, tuple(turn.detections["labels"][n] for n in TRAIT_NAMES))
        assert turn.confirmed == [t.name for t in sorted(state.confirmed)] == ["F6"]
    assert counts(state, TraitId.F6) == counts(state, TraitId.F2) == (2.0, 3.0)
    assert all(counts(state, t) == (1.0, 4.0) for t in ALL_TRAITS if t not in (TraitId.F2, TraitId.F6))


class _AlphaBetaReference:
    """The per-trait float Beta(alpha, beta) belief that the counts replace."""

    def __init__(self, tau):
        self.tau = tau
        self.ab = {t: (1.0, 1.0) for t in ALL_TRAITS}
        self.confirmed = set()

    def update(self, positives):
        for t in ALL_TRAITS:
            alpha, beta = self.ab[t]
            alpha, beta = (alpha + 1.0, beta) if t in positives else (alpha, beta + 1.0)
            self.ab[t] = (alpha, beta)
            if alpha / (alpha + beta) > self.tau and alpha > 1.0:
                self.confirmed.add(t)

    def priority(self, k):
        candidates = [t for t in ALL_TRAITS if t not in self.confirmed]
        candidates.sort(key=lambda t: (-beta_entropy(*self.ab[t]), int(t)))
        return candidates[:k]


@settings(max_examples=150, deadline=None)
@given(
    tau=st.sampled_from([0.0, 0.6, 0.9, 0.99]),
    history=st.lists(st.sets(st.sampled_from(list(ALL_TRAITS))), max_size=40),
)
def test_counts_fold_like_per_trait_alpha_beta(tau, history):
    state, reference = BeliefState(tau=tau), _AlphaBetaReference(tau)
    for turn, positives in enumerate(history, start=1):
        state = update(state, detections(positives))
        reference.update(positives)
        assert state.turns == turn and all(0 <= p <= turn for p in state.positives)
        assert all(counts(state, t) == reference.ab[t] for t in ALL_TRAITS)
        assert state.confirmed == reference.confirmed
        for k in range(1, 11):
            assert priority_traits(state, k) == reference.priority(k)


def test_priority_makes_no_beta_entropy_calls(monkeypatch):
    # perfbench's belief.beta_entropy.calls_per_turn counts calls through the module attribute
    calls = []

    def counting(alpha, beta):
        calls.append((alpha, beta))
        return beta_entropy(alpha, beta)

    monkeypatch.setattr(belief, "beta_entropy", counting)
    positives = (1, 0, 2, 0, 0, 3, 0, 0, 0, 0)
    for k in (1, 4, 10):
        for turns in (4, 5):
            state = BeliefState(positives=positives, turns=turns, confirmed=frozenset({TraitId.F6}))
            want = _brute_force_priority(state, k)  # through the unpatched beta_entropy
            assert priority_traits(state, k) == want
            assert calls == []
