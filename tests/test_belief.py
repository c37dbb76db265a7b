import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betaln, digamma

from elicit.belief import (
    BeliefState,
    TraitBelief,
    beta_entropy,
    priority_traits,
    update,
)
from elicit.ontology import ALL_TRAITS, TraitId
from elicit.runner import EpisodeConfig, run_replay


def detections(positive=()):
    pos = {TraitId.parse(t) if isinstance(t, str) else t for t in positive}
    return {t: t in pos for t in ALL_TRAITS}


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


def test_single_positive_confirms():
    state = update(BeliefState.fresh(), detections(["F2"]))
    b = state.beliefs[TraitId.F2]
    assert (b.alpha, b.beta) == (2.0, 1.0)
    assert state.beliefs[TraitId.F2].mean == pytest.approx(2 / 3)
    assert TraitId.F2 in state.confirmed


def test_single_negative_does_not_confirm():
    state = update(BeliefState.fresh(), detections())
    b = state.beliefs[TraitId.F2]
    assert (b.alpha, b.beta) == (1.0, 2.0)
    assert state.beliefs[TraitId.F2].mean == pytest.approx(1 / 3)
    assert TraitId.F2 not in state.confirmed


def test_twenty_negative_turns():
    # pure-negative evidence is symmetric across traits: Beta(1, 1+20) everywhere
    state = BeliefState.fresh()
    for _ in range(20):
        state = update(state, detections())
    for t in ALL_TRAITS:
        b = state.beliefs[t]
        assert (b.alpha, b.beta) == (1.0, 21.0)
        assert state.beliefs[t].mean == pytest.approx(1 / 22)
    assert not state.confirmed


def test_update_requires_full_coverage():
    state = BeliefState.fresh()
    with pytest.raises(ValueError):
        update(state, {TraitId.F1: True})


def test_posterior_means():
    assert TraitBelief(1, 1).mean == pytest.approx(0.5)
    assert TraitBelief(2, 1).mean == pytest.approx(0.6667, abs=1e-4)
    assert TraitBelief(1, 3).mean == pytest.approx(0.25)


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
    assert priority_traits(BeliefState.fresh()) == [TraitId.F1, TraitId.F2, TraitId.F3, TraitId.F4]


def test_priority_excludes_confirmed():
    state = BeliefState.fresh()
    state = BeliefState(beliefs=state.beliefs, tau=state.tau, confirmed=frozenset({TraitId.F1}))
    assert priority_traits(state) == [TraitId.F2, TraitId.F3, TraitId.F4, TraitId.F5]


def test_priority_fewer_than_k():
    state = BeliefState.fresh()
    confirmed = frozenset(ALL_TRAITS[:8])
    state = BeliefState(beliefs=state.beliefs, tau=state.tau, confirmed=confirmed)
    assert priority_traits(state, k=4) == [TraitId.F9, TraitId.F10]


# Integer pairs with a + b <= 22 where scipy's rounding gave H(a, b) != H(b, a).
MIRROR_PAIRS = [
    (2, 4), (3, 4), (2, 6), (3, 5), (2, 8), (4, 7), (6, 7), (2, 12), (4, 10), (6, 8), (5, 11),
    (2, 15), (6, 11), (2, 16), (5, 13), (4, 16), (6, 15), (8, 13), (5, 17), (7, 15), (8, 14),
]


@pytest.mark.parametrize("a, b", MIRROR_PAIRS)
def test_priority_mirror_pairs_tie_by_ascending_index(a, b):
    mirrored = {TraitId.F1: (a, b), TraitId.F2: (b, a), TraitId.F3: (b, a), TraitId.F4: (a, b)}
    beliefs = {t: TraitBelief(*map(float, mirrored.get(t, (1, 1)))) for t in ALL_TRAITS}
    state = BeliefState(beliefs=beliefs, confirmed=frozenset(ALL_TRAITS) - set(mirrored))
    assert priority_traits(state) == [TraitId.F1, TraitId.F2, TraitId.F3, TraitId.F4]


def _brute_force_priority(state, k):
    scored = []
    for t in ALL_TRAITS:
        if t in state.confirmed:
            continue
        b = state.beliefs[t]
        scored.append((-beta_entropy(b.alpha, b.beta), int(t), t))
    scored.sort()
    return [t for _, _, t in scored[:k]]


def test_priority_matches_brute_force_fuzzed():
    rng = random.Random(314)
    for _ in range(200):
        beliefs = {
            t: TraitBelief(alpha=1.0 + rng.randint(0, 12), beta=1.0 + rng.randint(0, 12))
            for t in ALL_TRAITS
        }
        confirmed = frozenset(t for t in ALL_TRAITS if rng.random() < 0.3)
        state = BeliefState(beliefs=beliefs, tau=0.6, confirmed=confirmed)
        k = rng.randint(1, 10)
        got = priority_traits(state, k)
        assert got == _brute_force_priority(state, k)
        assert not set(got) & confirmed


def test_update_order_insensitive_over_multiset():
    maps = [detections(["F1"]), detections(["F2", "F3"]), detections(), detections(["F1"])]
    rng = random.Random(5)
    final = []
    for _ in range(5):
        order = maps[:]
        rng.shuffle(order)
        state = BeliefState.fresh()
        for m in order:
            state = update(state, m)
        final.append({t: (b.alpha, b.beta) for t, b in state.beliefs.items()})
    assert all(f == final[0] for f in final)


def test_confirmation_latch_is_monotone():
    state = update(BeliefState.fresh(), detections(["F4"]))
    assert TraitId.F4 in state.confirmed
    for _ in range(30):
        state = update(state, detections())
    # mean is well below tau now, but confirmation latched
    assert state.beliefs[TraitId.F4].mean < state.tau
    assert TraitId.F4 in state.confirmed


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sets(st.sampled_from(list(ALL_TRAITS))), min_size=1, max_size=15))
def test_confirmed_monotone_over_any_history(history):
    state = BeliefState.fresh()
    previous = frozenset()
    for positives in history:
        state = update(state, {t: t in positives for t in ALL_TRAITS})
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
    log = run_replay(transcript, frozenset({TraitId.F2, TraitId.F6}), EpisodeConfig())
    state = BeliefState.fresh(tau=log.tau)
    for turn in log.turns:
        state = update(state, {TraitId.parse(n): v for n, v in turn.detections["labels"].items()})
        assert turn.confirmed == [t.name for t in sorted(state.confirmed)] == ["F6"]
    assert state.beliefs[TraitId.F6] == state.beliefs[TraitId.F2] == TraitBelief(2.0, 3.0)
    assert all(state.beliefs[t] == TraitBelief(1.0, 4.0) for t in ALL_TRAITS if t not in (TraitId.F2, TraitId.F6))
