"""Per-trait Beta belief state over detections.

Every turn updates all ten traits, so the state is a count of positive
detections per trait plus one shared turn count: after n turns, a trait with
p positives is Beta(1 + p, 1 + n - p) from the Beta(1, 1) prior. A trait
whose posterior mean crosses the detection threshold tau is confirmed, and
confirmation latches: it never leaves the confirmed set even if later
negative evidence drags the mean back down (cumulative coverage must be
monotone).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ontology import ALL_TRAITS, TraitId

DEFAULT_TAU = 0.6  # one positive from the prior gives mean 2/3 > tau: immediate confirmation
MAX_TURNS = 1_000  # the one bound on an episode's turns, up to which priority_traits' key is checked exact


def _digamma(x: float) -> float:
    """psi(x) for x > 0: shift up with psi(x) = psi(x+1) - 1/x until x >= 6,
    then the asymptotic series through x^-10 (A&S 6.3.18); |error| < 1e-11."""
    shift = 0.0
    while x < 6.0:
        shift -= 1.0 / x
        x += 1.0
    r = 1.0 / (x * x)
    tail = r * (1 / 12 - r * (1 / 120 - r * (1 / 252 - r * (1 / 240 - r / 132))))
    return shift + math.log(x) - 0.5 / x - tail


def beta_entropy(alpha: float, beta: float) -> float:
    """Differential entropy of Beta(alpha, beta).

    H = ln B(a,b) - (a-1) psi(a) - (b-1) psi(b) + (a+b-2) psi(a+b)

    Evaluated on (min, max) of the arguments, so H(a, b) == H(b, a) bit for
    bit: the tests order traits by this entropy, ties by index, as the oracle
    of ``priority_traits``' integer key, and a mirror pair such as (2, 4) /
    (4, 2) must tie exactly rather than by rounding.
    """
    a, b = (alpha, beta) if alpha <= beta else (beta, alpha)
    if not 0.0 < a <= b:  # also false when either is NaN
        raise ValueError(f"Beta parameters must be positive; got ({alpha}, {beta})")
    s = a + b
    return (
        math.lgamma(a) + math.lgamma(b) - math.lgamma(s)
        - (a - 1.0) * _digamma(a)
        - (b - 1.0) * _digamma(b)
        + (s - 2.0) * _digamma(s)
    )


@dataclass(frozen=True)
class BeliefState:
    """Positive-detection counts in trait order and the turn count; the defaults are the Beta(1, 1) prior."""

    positives: tuple[int, ...] = (0,) * len(ALL_TRAITS)
    turns: int = 0
    tau: float = DEFAULT_TAU
    confirmed: frozenset[TraitId] = frozenset()


def update(state: BeliefState, labels: tuple[bool, ...]) -> BeliefState:
    """Fold one turn's detection labels, ten bools in trait order, into the state; returns a new value."""
    # a mapping is refused: zipping it would add each trait id's index to that trait's count
    if not isinstance(labels, tuple) or len(labels) != len(ALL_TRAITS):
        raise ValueError(f"labels must be a tuple of {len(ALL_TRAITS)} bools in trait order, got {labels!r}")
    positives = tuple(p + v for p, v in zip(state.positives, labels))
    n = state.turns + 1
    # the posterior mean (1 + p) / (2 + n) is alpha / (alpha + beta) to the bit: small integer sums are exact
    confirmed = {t for t, p in zip(ALL_TRAITS, positives) if p > 0 and (1 + p) / (2 + n) > state.tau}
    return BeliefState(positives, n, state.tau, state.confirmed | confirmed)


def priority_traits(state: BeliefState, k: int) -> list[TraitId]:
    """The k highest-entropy unconfirmed traits (ties by ascending index).

    After n turns a trait with p positives is Beta(1 + p, 1 + n - p), whose
    entropy falls strictly as |2p - n| grows and is the same for p and n - p,
    so the order is the integer key (|2p - n|, index). For every n up to
    MAX_TURNS, the bound on an episode's turns, a test checks that this is
    the order of `beta_entropy` with ties by index.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = state.turns
    keyed = sorted((abs(2 * p - n), t) for t, p in zip(ALL_TRAITS, state.positives) if t not in state.confirmed)
    return [t for _, t in keyed[:k]]
