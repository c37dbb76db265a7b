"""Per-trait Beta belief state over detections.

Each trait carries a Beta(alpha, beta) accumulator starting at Beta(1, 1);
a positive detection increments alpha, a miss increments beta, every turn,
for all ten traits. A trait whose posterior mean crosses the detection
threshold tau is confirmed, and confirmation latches: it never leaves the
confirmed set even if later negative evidence drags the mean back down
(cumulative coverage must be monotone).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from scipy.special import betaln, digamma

from .ontology import ALL_TRAITS, TraitId

DEFAULT_TAU = 0.6  # one positive from the prior gives mean 2/3 > tau: immediate confirmation


@dataclass(frozen=True)
class TraitBelief:
    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha < 1.0 or self.beta < 1.0:
            raise ValueError("alpha and beta start at 1 and only accumulate")

    @property
    def mean(self) -> float:
        return self.alpha / (self.alpha + self.beta)


def beta_entropy(alpha: float, beta: float) -> float:
    """Differential entropy of Beta(alpha, beta).

    H = ln B(a,b) - (a-1) psi(a) - (b-1) psi(b) + (a+b-2) psi(a+b)
    """
    return float(
        betaln(alpha, beta)
        - (alpha - 1.0) * digamma(alpha)
        - (beta - 1.0) * digamma(beta)
        + (alpha + beta - 2.0) * digamma(alpha + beta)
    )


@dataclass(frozen=True)
class BeliefState:
    beliefs: Mapping[TraitId, TraitBelief]
    tau: float = DEFAULT_TAU
    confirmed: frozenset[TraitId] = frozenset()

    @classmethod
    def fresh(cls, tau: float = DEFAULT_TAU) -> "BeliefState":
        return cls(beliefs={t: TraitBelief(1.0, 1.0) for t in ALL_TRAITS}, tau=tau)

    def to_dict(self) -> dict:
        return {
            t.name: {
                "alpha": b.alpha,
                "beta": b.beta,
                "mean": b.mean,
                "confirmed": t in self.confirmed,
            }
            for t, b in sorted(self.beliefs.items())
        }


def update(state: BeliefState, detections: Mapping[TraitId, bool]) -> BeliefState:
    """Fold one turn of detections into the state; returns a new value."""
    missing = [t for t in ALL_TRAITS if t not in detections]
    if missing:
        raise ValueError(f"detections must cover all ten traits; missing {missing}")
    beliefs = {}
    confirmed = set(state.confirmed)  # latch
    for t in ALL_TRAITS:
        b = state.beliefs[t]
        if detections[t]:
            b = replace(b, alpha=b.alpha + 1.0)
        else:
            b = replace(b, beta=b.beta + 1.0)
        beliefs[t] = b
        if b.mean > state.tau and b.alpha > 1.0:
            confirmed.add(t)
    return BeliefState(beliefs=beliefs, tau=state.tau, confirmed=frozenset(confirmed))


def entropy(state: BeliefState, trait: TraitId) -> float:
    b = state.beliefs[trait]
    return beta_entropy(b.alpha, b.beta)


def priority_traits(state: BeliefState, k: int = 4) -> list[TraitId]:
    """The k highest-entropy unconfirmed traits (ties by ascending index)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    candidates = [t for t in ALL_TRAITS if t not in state.confirmed]
    candidates.sort(key=lambda t: (-entropy(state, t), int(t)))
    return candidates[:k]
