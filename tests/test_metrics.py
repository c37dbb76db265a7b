import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elicit.metrics import (
    EmptyGroundTruthError,
    NoValidLogsError,
    aggregate,
    ci95_halfwidth,
    exact_mean,
    exact_stdev,
)
from elicit.ontology import ALL_TRAITS, Strategy, TraitId
from elicit.episode_log import EpisodeLog, TurnRecord

from conftest import episode_metrics


def make_log(
    gt,
    confirmed_seq,
    strategies=None,
    max_turns=20,
    episode_id="e0",
    patient_id="P1",
    aborted=False,
):
    gt = frozenset(TraitId.parse(t) if isinstance(t, str) else t for t in gt)
    seq = [
        frozenset(TraitId.parse(t) if isinstance(t, str) else t for t in conf)
        for conf in confirmed_seq
    ]
    strategies = strategies or [Strategy.OPEN_ENDED.value] * len(seq)
    turns = tuple(
        TurnRecord(
            turn=i + 1,
            strategy=strategies[i],
            question=f"q{i}",
            response=f"r{i}",
            detections={"labels": {}, "evidence": {}},
            confirmed=[t.name for t in sorted(seq[i])],
        )
        for i in range(len(seq))
    )
    return EpisodeLog(
        episode_id=episode_id,
        patient_id=patient_id,
        mode="tpa",
        seed=0,
        max_turns=max_turns,
        tau=0.6,
        ground_truth=gt,
        turns=turns,
        aborted=aborted,
    )


def staircase_log(**kwargs):
    """Coverage steps at turns 3, 4, and 16 with ground truth {F2, F3, F6}."""
    seq = []
    for turn in range(1, 21):
        if turn < 3:
            seq.append(set())
        elif turn < 4:
            seq.append({"F2"})
        elif turn < 16:
            seq.append({"F2", "F6"})
        else:
            seq.append({"F2", "F6", "F3"})
    return make_log({"F2", "F3", "F6"}, seq, **kwargs)


def test_case_study_aucc():
    m = episode_metrics(staircase_log())
    assert m.coverage == pytest.approx(1.0)
    assert m.aucc == pytest.approx(0.6667, abs=5e-4)
    assert m.f1 == pytest.approx(1.0)


def test_perfect_detection():
    log = make_log({"F1", "F4"}, [{"F1", "F4"}] * 5, max_turns=5)
    m = episode_metrics(log)
    assert m.coverage == 1.0
    assert m.f1 == 1.0
    assert m.precision == 1.0 and m.recall == 1.0


def test_partial_detection_hand_arithmetic():
    # detected {F2,F6,F5} vs ground truth {F2,F3,F6}
    log = make_log({"F2", "F3", "F6"}, [{"F2", "F6", "F5"}] * 4, max_turns=4)
    m = episode_metrics(log)
    assert m.precision == pytest.approx(2 / 3)
    assert m.recall == pytest.approx(2 / 3)
    assert m.f1 == pytest.approx(2 / 3)
    assert m.coverage == pytest.approx(2 / 3)


def test_zero_detection_f1_zero():
    log = make_log({"F2"}, [set()] * 3, max_turns=3)
    m = episode_metrics(log)
    assert m.coverage == 0.0
    assert m.f1 == 0.0


def test_recall_equals_final_coverage_always():
    rng = random.Random(4)
    for _ in range(50):
        gt = frozenset(rng.sample(list(ALL_TRAITS), rng.randint(1, 5)))
        final = frozenset(rng.sample(list(ALL_TRAITS), rng.randint(0, 6)))
        log = make_log(gt, [final] * 6, max_turns=6)
        m = episode_metrics(log)
        assert m.recall == pytest.approx(m.coverage)


def test_precision_and_recall_read_the_last_turns_confirmed_list():
    # F5 is confirmed at turn 1 and gone by turn 2: only the last turn's list is scored
    log = make_log({"F1", "F2"}, [{"F5"}, {"F1"}], max_turns=2)
    m = episode_metrics(log)
    assert (m.precision, m.recall, m.coverage) == (1.0, 0.5, 0.5)


def test_a_log_with_no_turns_scores_the_empty_set():
    m = episode_metrics(make_log({"F1"}, [], max_turns=3))
    assert (m.coverage, m.precision, m.recall, m.f1, m.aucc) == (0.0, 0.0, 0.0, 0.0, 0.0)
    assert m.per_turn_coverage == (0.0, 0.0, 0.0)


def test_short_episode_pads_final_value():
    log = make_log({"F2"}, [set(), {"F2"}], max_turns=10)
    m = episode_metrics(log)
    assert len(m.per_turn_coverage) == 10
    assert m.per_turn_coverage[0] == 0.0
    assert all(c == 1.0 for c in m.per_turn_coverage[1:])
    assert m.aucc == pytest.approx(0.9)


def test_aucc_never_exceeds_final_coverage():
    rng = random.Random(9)
    for _ in range(50):
        gt = {"F1", "F2", "F3"}
        seq = []
        confirmed = set()
        for _ in range(rng.randint(1, 20)):
            if rng.random() < 0.3:
                confirmed.add(rng.choice(["F1", "F2", "F3", "F7"]))
            seq.append(set(confirmed))
        m = episode_metrics(make_log(gt, seq))
        assert m.aucc <= m.coverage + 1e-12
        if len(set(map(tuple, map(sorted, seq)))) == 1 and len(seq) == 20:
            assert m.aucc == pytest.approx(m.coverage)


def test_aucc_equals_coverage_when_constant():
    log = make_log({"F2"}, [{"F2"}] * 20)
    m = episode_metrics(log)
    assert m.aucc == pytest.approx(m.coverage)


def test_no_gain_turn_never_raises_aucc():
    # appending a turn with no new detection matches the padded extension exactly
    seq = [set(), {"F2"}, {"F2"}]
    base = episode_metrics(make_log({"F2", "F3"}, seq, max_turns=20))
    extended = episode_metrics(make_log({"F2", "F3"}, seq + [{"F2"}], max_turns=20))
    assert extended.aucc == pytest.approx(base.aucc)


def test_empty_ground_truth_error():
    log = make_log({"F2"}, [set()] * 2, max_turns=2)
    object.__setattr__(log, "ground_truth", frozenset())
    with pytest.raises(EmptyGroundTruthError):
        episode_metrics(log)


# --- gain rate ---------------------------------------------------------------


def _gain_rate(logs, strategy):
    return aggregate(logs).gain_rates[strategy.value]


def test_gain_rate_hand_count():
    # strategy used 5 times, coverage rose on 2 of them
    seq = [set(), {"F1"}, {"F1"}, {"F1", "F2"}, {"F1", "F2"}]
    strategies = [Strategy.HYPOTHETICAL.value] * 5
    log = make_log({"F1", "F2", "F3"}, seq, strategies=strategies, max_turns=5)
    assert _gain_rate([log], Strategy.HYPOTHETICAL) == pytest.approx(0.4)


def test_gain_rate_never_effective():
    log = make_log({"F1"}, [set()] * 4, strategies=[Strategy.MULTI_STEP.value] * 4, max_turns=4)
    assert _gain_rate([log], Strategy.MULTI_STEP) == 0.0


def test_gain_rate_unused_is_undefined():
    log = make_log({"F1"}, [set()] * 4, max_turns=4)
    assert _gain_rate([log], Strategy.CORRECTION_INDUCING) is None


def test_gain_rate_pools_across_episodes():
    a = make_log({"F1"}, [{"F1"}], strategies=[Strategy.HYPOTHETICAL.value], max_turns=1)
    b = make_log({"F1"}, [set()], strategies=[Strategy.HYPOTHETICAL.value], max_turns=1,
                 episode_id="e1")
    assert _gain_rate([a, b], Strategy.HYPOTHETICAL) == pytest.approx(0.5)


def test_gain_rates_and_distributions_count_every_turn():
    # six recorded turns under a six-turn budget; values as the per-strategy re-walk gave them
    seq = [set(), {"F1"}, {"F1"}, {"F1"}, {"F1", "F2"}, {"F1", "F2", "F3"}]
    hyp, opn, multi = Strategy.HYPOTHETICAL.value, Strategy.OPEN_ENDED.value, Strategy.MULTI_STEP.value
    log = make_log({"F1", "F2", "F3"}, seq, strategies=[hyp, opn, hyp, multi, hyp, opn], max_turns=6)
    report = aggregate([log])
    assert report.gain_rates == {
        "correction_inducing": None, "emotion_oriented": None, "hypothetical": 1 / 3,
        "multi_step": 0.0, "open_ended": 1.0, "perspective_taking": None,
    }
    assert report.strategy_distribution == {"hypothetical": 0.5, "multi_step": 1 / 6, "open_ended": 1 / 3}
    assert report.phase_distribution == {
        "early": {"hypothetical": 0.6, "multi_step": 0.2, "open_ended": 0.2},
        "mid": {"open_ended": 1.0},
        "late": {},
    }
    assert report.episodes[0].per_turn_coverage == (0.0, 1 / 3, 1 / 3, 1 / 3, 2 / 3, 1.0)
    assert report.episodes[0].coverage == 1.0


def test_late_phase_counts_every_turn_from_13():
    # a 25-turn log: turns 1-5 early, 6-12 mid, 13-25 (past the default 20) late
    hyp, opn, multi = Strategy.HYPOTHETICAL.value, Strategy.OPEN_ENDED.value, Strategy.MULTI_STEP.value
    log = make_log({"F1"}, [set()] * 25, strategies=[hyp] * 5 + [opn] * 7 + [multi] * 13, max_turns=25)
    assert aggregate([log]).phase_distribution == {
        "early": {"hypothetical": 1.0},
        "mid": {"open_ended": 1.0},
        "late": {"multi_step": 1.0},
    }


# --- corpus aggregation --------------------------------------------------------


def test_aggregate_mean_coverage():
    a = make_log({"F1", "F2"}, [{"F1"}] * 4, max_turns=4, episode_id="a")
    b = make_log({"F1"}, [{"F1"}] * 4, max_turns=4, episode_id="b")
    report = aggregate([a, b])
    assert report.n_episodes == 2
    assert report.mean_coverage == pytest.approx(0.75)


def test_aggregate_distribution_single_strategy():
    log = make_log({"F1"}, [set()] * 4, max_turns=4)
    report = aggregate([log])
    assert report.strategy_distribution == {Strategy.OPEN_ENDED.value: 1.0}


def test_aggregate_matches_brute_force_oracle():
    rng = random.Random(17)
    logs = []
    for i in range(3):
        gt = frozenset(rng.sample(list(ALL_TRAITS), rng.randint(1, 4)))
        confirmed = set()
        seq = []
        strategies = []
        for _ in range(20):
            if rng.random() < 0.25:
                confirmed.add(rng.choice(list(ALL_TRAITS)))
            seq.append(set(confirmed))
            strategies.append(rng.choice(list(Strategy)).value)
        logs.append(make_log(gt, seq, strategies=strategies, episode_id=f"e{i}", patient_id=f"P{i}"))

    report = aggregate(logs)

    # independent recomputation straight off the raw logs
    per_episode = []
    for log in logs:
        gt = log.ground_truth
        covs = [
            len(frozenset(map(TraitId.parse, t.confirmed)) & gt) / len(gt)
            for t in log.turns
        ]
        aucc = sum(covs) / len(covs)
        per_episode.append((covs[-1], aucc))
    assert report.mean_coverage == pytest.approx(
        sum(c for c, _ in per_episode) / len(per_episode)
    )
    assert report.mean_aucc == pytest.approx(sum(a for _, a in per_episode) / len(per_episode))

    for phase, dist in report.phase_distribution.items():
        if dist:
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    assert sum(report.strategy_distribution.values()) == pytest.approx(1.0, abs=1e-9)


def test_aggregate_permutation_invariant():
    logs = [
        make_log({"F1"}, [{"F1"}] * 3, max_turns=3, episode_id=f"e{i}", patient_id=f"P{i % 2}")
        for i in range(4)
    ]
    a = aggregate(logs)
    b = aggregate(list(reversed(logs)))
    assert a.mean_coverage == b.mean_coverage
    assert a.strategy_distribution == b.strategy_distribution
    assert a.gain_rates == b.gain_rates


def test_aggregate_excludes_aborted_by_default():
    good = make_log({"F1"}, [{"F1"}] * 2, max_turns=2, episode_id="g")
    bad = make_log({"F1"}, [set()], max_turns=2, episode_id="b", aborted=True)
    report = aggregate([good, bad])
    assert report.n_episodes == 1
    report_all = aggregate([good, bad], include_aborted=True)
    assert report_all.n_episodes == 2


def test_aggregate_no_valid_logs():
    bad = make_log({"F1"}, [set()], max_turns=2, aborted=True)
    with pytest.raises(NoValidLogsError):
        aggregate([bad])


def test_aggregate_by_patient_block():
    logs = [
        make_log({"F1"}, [{"F1"}] * 2, max_turns=2, episode_id="a", patient_id="P1"),
        make_log({"F1"}, [{"F1"}] * 2, max_turns=2, episode_id="b", patient_id="P1"),
        make_log({"F1"}, [set()] * 2, max_turns=2, episode_id="c", patient_id="P2"),
    ]
    report = aggregate(logs)
    # episode pooling: (1 + 1 + 0) / 3; patient pooling: (1 + 0) / 2
    assert report.mean_coverage == pytest.approx(2 / 3)
    assert report.by_patient["mean_coverage"] == pytest.approx(0.5)
    assert report.by_patient["n_patients"] == 2


def test_ci95_halfwidth_formula():
    import math
    import statistics

    values = [0.2, 0.4, 0.6, 0.9]
    expected = 1.96 * statistics.stdev(values) / math.sqrt(len(values))
    assert ci95_halfwidth(values) == pytest.approx(expected, abs=1e-12)
    assert ci95_halfwidth([0.5]) == 0.0


# finite floats of every scale, signed zeros, subnormals, the extremes of the
# range, and coverage-like k/g fractions; a sample may repeat one value
_FLOAT = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, 1e300, -1e300]),
    st.integers(1, 10).flatmap(lambda g: st.integers(0, g).map(lambda k: k / g)),
)


def _samples(min_size):
    return st.one_of(
        st.lists(_FLOAT, min_size=min_size, max_size=200),
        st.tuples(_FLOAT, st.integers(min_size, 200)).map(lambda pair: [pair[0]] * pair[1]),
    )


@settings(max_examples=150, deadline=None)
@given(_samples(1))
def test_exact_mean_equals_statistics_mean_to_the_bit(values):
    assert exact_mean(values) == statistics.mean(values)
    assert exact_mean(iter(values)) == statistics.mean(values)


@settings(max_examples=150, deadline=None)
@given(_samples(2))
def test_exact_stdev_and_ci95_equal_their_statistics_values_to_the_bit(values):
    assert exact_stdev(values) == statistics.stdev(values)
    assert ci95_halfwidth(values) == 1.96 * statistics.stdev(values) / math.sqrt(len(values))


@st.composite
def _logs(draw):
    logs = []
    for i in range(draw(st.integers(1, 6))):
        gt = draw(st.sets(st.sampled_from(ALL_TRAITS), min_size=1, max_size=4))
        confirmed, seq = set(), []
        for _ in range(draw(st.integers(0, 20))):
            confirmed |= draw(st.sets(st.sampled_from(ALL_TRAITS), max_size=1))
            seq.append(set(confirmed))
        strategies = draw(st.lists(st.sampled_from([s.value for s in Strategy]), min_size=len(seq), max_size=len(seq)))
        logs.append(make_log(
            gt, seq, strategies=strategies, max_turns=max(len(seq), 1) + draw(st.integers(0, 3)),
            episode_id=f"e{i}", patient_id=f"P{draw(st.integers(0, 2))}",
        ))
    return logs


@settings(max_examples=30, deadline=None)
@given(_logs())
def test_aggregate_folds_an_iterator_as_it_folds_a_list(logs):
    assert aggregate(iter(logs)) == aggregate(logs)
