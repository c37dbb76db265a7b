"""Episode- and corpus-level evaluation metrics.

All quantities are computed from the per-turn lists of confirmed traits
that each log holds and its ground truth, so a report is an independent
reading of the raw logs. Episode scores are pooled
as the unweighted mean over episodes; a patient-level aggregation (mean
within patient, then across patients) is always emitted alongside to make
the pooling convention visible.

`exact_mean` and `exact_stdev` sum each float's exact binary value in
integers and round once, so they equal `statistics.mean` and
`statistics.stdev` of finite floats to the bit without a `Fraction` per value.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from .belief import MAX_TURNS
from .errors import InputError
from .ontology import STRATEGY_ORDER
from .episode_log import EpisodeLog

PHASES: tuple[tuple[str, int, float], ...] = (("early", 1, 5), ("mid", 6, 12), ("late", 13, math.inf))
# the phase of each turn number a log may hold, at its index
_PHASE_OF_TURN: tuple[str | None, ...] = (None,) + tuple(
    next(name for name, lo, hi in PHASES if lo <= turn <= hi) for turn in range(1, MAX_TURNS + 1)
)


class EmptyGroundTruthError(ValueError):
    pass


class NoValidLogsError(InputError):
    pass


@dataclass(frozen=True)
class EpisodeMetrics:
    episode_id: str
    patient_id: str
    coverage: float
    precision: float
    recall: float
    f1: float
    aucc: float
    per_turn_coverage: tuple[float, ...]


def _coverage(log: EpisodeLog) -> list[float]:
    """Ground-truth coverage after each recorded turn, read from its list of confirmed traits."""
    gt = log.ground_truth
    if not gt:
        raise EmptyGroundTruthError(f"{log.episode_id}: empty ground truth")
    names = {t.name for t in gt}
    return [len(names.intersection(turn.confirmed)) / len(gt) for turn in log.turns]


def _metrics(log: EpisodeLog, per_turn: list[float]) -> EpisodeMetrics:
    final_cov = per_turn[-1] if per_turn else 0.0
    # short episodes carry their final coverage forward to the turn budget
    padded = per_turn + [final_cov] * (log.max_turns - len(per_turn))

    # the traits confirmed after the last turn, none for a log with no turns
    detected = set(log.turns[-1].confirmed if log.turns else ())
    names = {t.name for t in log.ground_truth}
    tp = detected & names
    fp = detected - names
    fn = names - detected
    precision = len(tp) / (len(tp) + len(fp)) if (tp or fp) else 0.0
    recall = len(tp) / (len(tp) + len(fn))
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) > 0 else 0.0
    aucc = sum(padded) / len(padded)
    return EpisodeMetrics(
        episode_id=log.episode_id,
        patient_id=log.patient_id,
        coverage=final_cov,
        precision=precision,
        recall=recall,
        f1=f1,
        aucc=aucc,
        per_turn_coverage=tuple(padded),
    )


def _distribution(counts: dict[str, int]) -> dict[str, float]:
    total = sum(counts.values())
    if total == 0:
        return {}
    return {label: n / total for label, n in sorted(counts.items())}


@dataclass(frozen=True)
class CorpusReport:
    n_episodes: int
    mean_coverage: float
    mean_precision: float
    mean_recall: float
    mean_f1: float
    mean_aucc: float
    by_patient: dict
    gain_rates: dict[str, float | None]
    strategy_distribution: dict[str, float]
    phase_distribution: dict[str, dict[str, float]]
    per_turn_mean_coverage: tuple[float, ...]
    per_turn_ci95: tuple[float, ...]
    episodes: tuple[EpisodeMetrics, ...]

    def to_dict(self) -> dict:
        # shallow on purpose: dataclasses.asdict deep-copies every value and is ~100x slower here
        return {**vars(self), "episodes": [vars(e) for e in self.episodes]}


def _scaled(values: Iterable[float]) -> tuple[list[int], int]:
    """Each value as an integer numerator over one power-of-two denominator, exactly."""
    ratios = [v.as_integer_ratio() for v in values]
    den = max(d for _, d in ratios)  # a ValueError for no values
    return [n * (den // d) for n, d in ratios], den


def exact_mean(values: Iterable[float]) -> float:
    """The mean of `values`, rounded once from its exact value: `statistics.mean` of finite floats."""
    nums, den = _scaled(values)
    return sum(nums) / (len(nums) * den)  # int true division rounds correctly


def exact_stdev(values: Iterable[float]) -> float:
    """The sample standard deviation, rounded once from its exact value: `statistics.stdev` of finite floats."""
    nums, den = _scaled(values)
    n = len(nums)
    if n < 2:
        raise ValueError("need at least two values")
    total = sum(nums)
    # the variance is (n·Σx² - (Σx)²) / (n·(n-1)·den²), in integers
    num, div = n * sum(x * x for x in nums) - total * total, n * (n - 1) * den * den
    # scale num/div by 4**-shift so that its integer root keeps at least 2·53+3 bits: rounding
    # that root to odd, then once to a float, rounds the exact root correctly
    shift = (num.bit_length() - div.bit_length() - 109) // 2
    if shift >= 0:
        div <<= 2 * shift
    else:
        num <<= -2 * shift
    root = math.isqrt(num // div)
    root |= root * root * div != num
    return (root << shift) / 1 if shift >= 0 else root / (1 << -shift)


def ci95_halfwidth(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    return 1.96 * exact_stdev(values) / math.sqrt(len(values))


def aggregate(logs: Iterable[EpisodeLog], include_aborted: bool = False) -> CorpusReport:
    """The corpus report, folding each log once; aborted logs count only with `include_aborted`.

    A strategy's gain rate is the fraction of its turns that raised coverage,
    pooled over every recorded turn of every episode; None when no turn used
    it (the rate is undefined, not zero).
    """
    episodes = []
    used: Counter[str] = Counter()
    effective: Counter[str] = Counter()
    phase_counts = {name: Counter() for name, _, _ in PHASES}
    for log in logs:
        if log.aborted and not include_aborted:
            continue
        per_turn = _coverage(log)
        episodes.append(_metrics(log, per_turn))
        prev = 0.0
        for turn, cov in zip(log.turns, per_turn):
            used[turn.strategy] += 1
            if cov > prev:
                effective[turn.strategy] += 1
            phase_counts[_PHASE_OF_TURN[turn.turn]][turn.strategy] += 1
            prev = cov
    if not episodes:
        raise NoValidLogsError("no non-aborted episode logs to aggregate")

    def mean(attr: str) -> float:
        return sum(getattr(e, attr) for e in episodes) / len(episodes)

    per_patient: dict[str, list[EpisodeMetrics]] = {}
    for e in episodes:
        per_patient.setdefault(e.patient_id, []).append(e)
    by_patient: dict = {"n_patients": len(per_patient)}
    for attr in ("coverage", "f1", "aucc"):  # the mean over patients of each patient's mean
        by_patient[f"mean_{attr}"] = exact_mean(
            exact_mean(getattr(x, attr) for x in group) for group in per_patient.values()
        )

    labels = sorted({s.value for s in STRATEGY_ORDER} | set(used))
    rates = {label: effective[label] / used[label] if used[label] else None for label in labels}

    horizon = max(len(e.per_turn_coverage) for e in episodes)
    per_turn_mean = []
    per_turn_ci = []
    for i in range(horizon):
        column = [
            e.per_turn_coverage[i] if i < len(e.per_turn_coverage) else e.per_turn_coverage[-1]
            for e in episodes
        ]
        per_turn_mean.append(sum(column) / len(column))
        per_turn_ci.append(ci95_halfwidth(column))

    return CorpusReport(
        n_episodes=len(episodes),
        mean_coverage=mean("coverage"),
        mean_precision=mean("precision"),
        mean_recall=mean("recall"),
        mean_f1=mean("f1"),
        mean_aucc=mean("aucc"),
        by_patient=by_patient,
        gain_rates=rates,
        strategy_distribution=_distribution(used),
        phase_distribution={name: _distribution(c) for name, c in phase_counts.items()},
        per_turn_mean_coverage=tuple(per_turn_mean),
        per_turn_ci95=tuple(per_turn_ci),
        episodes=tuple(episodes),
    )
