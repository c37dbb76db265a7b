"""Span tracing around the public calls of each `elicit` module.

The benchmark records spans from its own files only: while a `Tracer` is
installed it replaces the traced functions and methods with timing wrappers
and puts the originals back when it is removed. Nothing under `src/` knows
about it. Each span records its name, start and end (perf_counter_ns), the
span that was open on the same thread when it started, the episode it
belongs to, and the benchmark round and phase it ran in. Spans stay in
memory until the run ends, when `write` saves them as JSON lines.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import threading
from pathlib import Path
from time import perf_counter_ns

from elicit import bank, belief, cli, detector, fidelity, patient, retrieval, runner, selector


class Span:
    __slots__ = ("name", "start", "end", "parent", "episode", "round", "phase", "extra", "child_ns")

    def __init__(self, name, parent, episode, round_, phase):
        self.name = name
        self.parent = parent
        self.episode = episode
        self.round = round_
        self.phase = phase
        self.extra = None
        self.child_ns = 0

    @property
    def ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.ns - self.child_ns


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _episode_id(args, kwargs):
    # run_episode/run_random(cfg, bank, profile, components, episode_id) and
    # run_replay(transcript, ground_truth, cfg, components, episode_id)
    return _arg(args, kwargs, 4, "episode_id")


def _fidelity_episode_id(args, kwargs):
    # _simulate_patient(bank, patient_id, ...): one held-out patient
    return "fidelity-" + _arg(args, kwargs, 1, "patient_id")


def _retrieve_candidates(args, kwargs, result):
    # AnchorRetriever.retrieve(self, query, exclude_patient)
    retriever, excluded = args[0], _arg(args, kwargs, 2, "exclude_patient")
    return len(retriever.bank) - len(retriever.bank.by_patient.get(excluded, ()))


def _encode_text(args, kwargs, result):
    return _arg(args, kwargs, 1, "text")


def _json_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


# (owner, attribute, span name, episode-id hook, extra-value hook)
_TARGETS = (
    (bank, "ingest", "bank.ingest", None, None),
    (runner, "build_components", "runner.build_components", None, None),
    (retrieval.AnchorRetriever, "__init__", "retrieval.index_build", None, None),
    (retrieval.AnchorRetriever, "retrieve", "retrieval.retrieve", None, _retrieve_candidates),
    (retrieval.FallbackEncoder, "encode", "retrieval.encode", None, _encode_text),
    (selector.HeuristicSelector, "think", "selector.think", None, None),
    (selector.HeuristicSelector, "plan", "selector.plan", None, None),
    (selector.HeuristicSelector, "ask", "selector.ask", None, None),
    (belief, "update", "belief.update", None, None),
    (belief, "priority_traits", "belief.priority_traits", None, None),
    (belief, "beta_entropy", "belief.beta_entropy", None, None),
    (runner, "emit_traits", "patient.emit", None, None),
    (fidelity, "emit_traits", "patient.emit", None, None),
    (patient.TemplateRealiser, "realise", "patient.realise", None, None),
    (detector.RuleDetector, "detect", "detector.detect", None, None),
    (runner, "run_batch", "runner.run_batch", None, None),
    (runner, "run_episode", "runner.episode", _episode_id, None),
    (runner, "run_random", "runner.episode", _episode_id, None),
    (runner, "run_replay", "runner.episode", _episode_id, None),
    (runner.EpisodeLog, "to_json", "runner.log.to_json", None, _json_bytes),
    (runner, "write_logs", "runner.write_logs", None, None),
    # cli imported these two by name, so they are patched where cli looks them up
    (cli, "read_logs", "runner.read_logs", None, None),
    (cli, "aggregate", "metrics.aggregate", None, None),
    (fidelity, "loo_validate", "fidelity.loo_validate", None, None),
    (fidelity, "_simulate_patient", "fidelity.simulate_patient", _fidelity_episode_id, None),
    (fidelity, "_semantic_similarity", "fidelity.semantic_similarity", _fidelity_episode_id, None),
)


class Tracer:
    """Records spans while installed; `round` and `phase` tag every span opened under them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.round: int | None = None
        self.phase: str | None = None
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, episode=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if episode is None and parent is not None:
            episode = parent.episode
        span = Span(name, parent, episode, self.round, self.phase)
        stack.append(span)
        span.start = perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter_ns()
        self._stack().pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a call the benchmark makes itself (e.g. `cli.main`)."""
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, fn, name, episode_of, extra_of):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = tracer._open(name, episode_of(args, kwargs) if episode_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(s)
            if extra_of is not None:
                s.extra = extra_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, episode_of, extra_of in _TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, episode_of, extra_of))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        ids = {id(s): i for i, s in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                parent = ids.get(id(s.parent)) if s.parent is not None else None
                fh.write(json.dumps([i, s.name, s.start, s.end, parent, s.episode, s.round, s.phase]) + "\n")


class NullTracer:
    """Stands in for a Tracer when tracing is off."""

    phase = None

    def span(self, name: str):
        return contextlib.nullcontext()


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _quantile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def layer_metrics(spans: list[Span], rounds: int, main_phases: tuple[str, ...], counts: dict) -> dict[str, float]:
    """Per-layer figures from the spans of `rounds` traced rounds.

    `counts` holds totals over those rounds: `turns`, `planned_turns` and
    `evaluated` episodes. Per-call times cover the main phases (the timed
    batch); the index build, log writing and evaluation have phases of their
    own and are reported per build or per episode.
    """
    for s in spans:
        if s.parent is not None:
            s.parent.child_ns += s.ns
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault((s.phase in main_phases, s.name), []).append(s)

    def main(name):
        return by_name.get((True, name), [])

    def anywhere(name):
        return by_name.get((True, name), []) + by_name.get((False, name), [])

    def us(name, self_time=False):
        return _mean([(x.self_ns if self_time else x.ns) / 1e3 for x in main(name)])

    def per(total, base):
        return total / base if base else 0.0

    turns, planned, evaluated = counts["turns"], counts["planned_turns"], counts["evaluated"]
    reads = 2 * evaluated  # `evaluate` and `report` each read and aggregate every log
    queries = [s for s in main("retrieval.encode") if s.parent is None or s.parent.name != "retrieval.index_build"]
    # repeats within a round: rounds share no components, so a cache kept on them gets no more
    distinct = len({(s.round, s.extra) for s in queries})
    episodes = main("runner.episode")
    episode_ms = sorted(s.ns / 1e6 for s in episodes)
    turn_ns = sum(s.ns for s in episodes) + sum(s.ns for s in main("fidelity.loo_validate"))
    writes = [s for s in anywhere("runner.log.to_json") if s.phase == "write"]
    index_builds = [s.ns / 1e9 for s in anywhere("retrieval.index_build")]
    ingests = [s.ns / 1e9 for s in anywhere("bank.ingest")]

    return {
        "bank.ingest_s": statistics.median(ingests) if ingests else 0.0,
        "retrieval.index_build_s": statistics.median(index_builds) if index_builds else 0.0,
        "retrieval.retrieve.self_us_per_call": us("retrieval.retrieve", self_time=True),
        "retrieval.retrieve.calls": per(len(main("retrieval.retrieve")), rounds),
        "retrieval.retrieve.candidates_per_call": _mean([s.extra for s in main("retrieval.retrieve")]),
        "retrieval.turn_share": per(sum(s.ns for s in main("retrieval.retrieve")), turn_ns),
        "retrieval.encode.us_per_call": _mean([s.ns / 1e3 for s in queries]),
        "retrieval.encode.calls": per(len(queries), rounds),
        "retrieval.encode.repeat_ratio": 1.0 - per(distinct, len(queries)) if queries else 0.0,
        "selector.think.self_us_per_call": us("selector.think", self_time=True),
        "selector.plan.us_per_call": us("selector.plan"),
        "selector.ask.us_per_call": us("selector.ask"),
        "belief.update.us_per_call": us("belief.update"),
        "belief.priority_traits.us_per_call": us("belief.priority_traits"),
        "belief.beta_entropy.calls_per_turn": per(len(main("belief.beta_entropy")), planned),
        "patient.emit.us_per_call": us("patient.emit"),
        "patient.realise.us_per_call": us("patient.realise"),
        "detector.detect.us_per_call": us("detector.detect"),
        "runner.episode.ms_p50": _quantile(episode_ms, 0.5),
        "runner.episode.ms_p90": _quantile(episode_ms, 0.9),
        "runner.loop.self_us_per_turn": per(sum(s.self_ns for s in episodes) / 1e3, turns),
        "runner.log.to_json_us_per_episode": _mean([s.ns / 1e3 for s in writes]),
        "runner.log.bytes_per_episode": _mean([s.extra for s in writes]),
        "runner.write_logs.ms_per_episode": per(
            sum(s.ns for s in anywhere("runner.write_logs") if s.phase == "write") / 1e6, len(writes)
        ),
        "runner.read_logs.ms_per_episode": per(sum(s.ns for s in anywhere("runner.read_logs")) / 1e6, reads),
        "metrics.aggregate.ms_per_episode": per(sum(s.ns for s in anywhere("metrics.aggregate")) / 1e6, reads),
        "cli.evaluate.ms_per_episode": per(sum(s.ns for s in anywhere("cli.evaluate")) / 1e6, evaluated),
        "cli.report.ms_per_episode": per(sum(s.ns for s in anywhere("cli.report")) / 1e6, evaluated),
        "fidelity.simulate_patient.self_ms_per_call": us("fidelity.simulate_patient", self_time=True) / 1e3,
        "fidelity.semantic_similarity.ms_per_call": us("fidelity.semantic_similarity") / 1e3,
    }
