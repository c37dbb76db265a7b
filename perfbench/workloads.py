"""The benchmark's workloads and the rounds it times.

Every workload is a closed loop: one caller runs a round, waits for it and
starts the next. A round stands for one set of CLI invocations, on inputs
generated from its own round seed, which is derived from the workload seed
and the round's index:

- `elicit synth`: a bank synthesised from the round seed and written as JSON
  lines (not timed);
- set-up: `bank.ingest` of that file, then `runner.build_components` (for
  fidelity-loo, `ingest` only, because `loo_validate` builds its own index);
- `elicit run`: `run_batch` + `write_logs` per condition, with the round seed
  as run seed;
- `elicit evaluate` and `elicit report` over the written logs, through
  `cli.main`;
- `elicit validate`: `loo_validate` with the round seed, and its report
  written as the CLI does.

No round shares its bank, its run seed or its components with another, so a
cache gets only the repeats that one invocation makes. Round 0 is run again
at the end of a run, and its output must not change.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy
import scipy

from elicit import bank as bank_mod
from elicit import cli, fidelity, runner
from elicit.bank import SynthSpec, synthesize_bank, write_bank
from elicit.patient import EmissionParams

import checks
import hostspeed
from tracing import NullTracer, Tracer, layer_metrics

TURNS = 20
STRATEGY_GAIN = 2.0  # the criterion-5 and scripts/ordering_experiment.py setting
NPROC = len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "loop", "replay" or "fidelity"
    patients: int
    snippets: int  # per patient
    setups: int  # set-ups timed per round; the rounds use the last
    episodes: int = 0  # per condition ("loop") or per patient ("fidelity"); replay runs one per patient
    parallel: bool = False  # run the same jobs again at parallel=NPROC


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ordering-small", "loop", 20, 10, setups=6, episodes=5, parallel=True),
        Workload("large-bank", "loop", 200, 10, setups=1, episodes=1),
        Workload("replay-evaluate", "replay", 60, 20, setups=2),
        Workload("fidelity-loo", "fidelity", 20, 10, setups=10, episodes=2),
    )
}

# the same workloads at a size that runs in well under a second: the
# reference digest probe and the harness's own tests use these
TINY = {
    "ordering-small": dict(patients=4, snippets=10, episodes=2, setups=1),
    "large-bank": dict(patients=6, snippets=10, episodes=1, setups=1),
    "replay-evaluate": dict(patients=6, snippets=20, setups=1),
    "fidelity-loo": dict(patients=4, snippets=10, episodes=1, setups=1),
}

REFERENCE_SEED = 0


def tiny(name: str) -> Workload:
    return replace(WORKLOADS[name], **TINY[name])


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


@dataclass
class Round:
    main_s: float  # run_batch + write_logs, or loo_validate
    pipeline_s: float  # everything after set-up
    main_ref_s: float  # the same two in reference seconds (see hostspeed.py)
    pipeline_ref_s: float
    turns: int
    planned_turns: int
    episodes: int  # attempted, all phases
    failed_episodes: int  # aborted or skipped
    evaluated: int = 0
    evaluate_s: float = 0.0
    parallel_s: float = 0.0
    digest: str = ""
    quality: dict = field(default_factory=dict)
    checks: int = 0
    problems: list[str] = field(default_factory=list)


def _cli(argv: list) -> int:
    # evaluate/report print summaries; the benchmark's stdout is its result
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main([str(a) for a in argv])


def round_seed(seed: int, index: int) -> int:
    return runner.derive_seed(seed, f"round-{index}")


class Session:
    """One workload run from one seed, and the rounds run in it."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path):
        self.w = workload
        self.seed = seed
        self.dir = work_dir
        self.tracer = NullTracer()
        self.setup_s: list[float] = []
        self.setup_ref_s: list[float] = []
        work_dir.mkdir(parents=True, exist_ok=True)
        self.bank_path = work_dir / "bank.jsonl"

    def setup(self, cfg):
        self.tracer.phase = "setup"
        start = perf_counter()
        bank = bank_mod.ingest(self.bank_path)
        comps = runner.build_components(cfg, bank) if self.w.kind != "fidelity" else None
        self.setup_s.append(perf_counter() - start)
        self.tracer.phase = None
        return bank, comps

    def round(self, index: int) -> Round:
        """Run round `index`; each timed phase sits between two runs of the host-speed kernel."""
        seed = round_seed(self.seed, index)
        spec = SynthSpec(n_patients=self.w.patients, snippets_per_patient=self.w.snippets)
        write_bank(synthesize_bank(spec, seed=seed), self.bank_path)
        self.cfg = runner.EpisodeConfig(
            seed=seed, max_turns=TURNS, emission=EmissionParams(strategy_gain=STRATEGY_GAIN)
        )
        out = self.dir / "round"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        gc.collect()  # every round starts from the same collector state
        before = hostspeed.kernel()
        for _ in range(self.w.setups):
            self.bank, self.comps = self.setup(self.cfg)
        speed = [before, hostspeed.kernel()]
        self.setup_ref_s += [hostspeed.scaled(s, *speed) for s in self.setup_s[-self.w.setups :]]
        r = self._validate(out, speed) if self.w.kind == "fidelity" else self._loop(out, speed)
        r.digest = checks.tree_digest(out, skip=("parallel",))
        return r

    def _loop(self, out: Path, speed: list[float]) -> Round:
        t, bank = self.tracer, self.bank
        modes = ("tpa", "random") if self.w.kind == "loop" else ("replay",)
        results = {}
        start = perf_counter()
        for mode in modes:
            t.phase = "run"
            results[mode] = runner.run_batch(self.cfg, bank, mode, self.w.episodes, components=self.comps)
            t.phase = "write"
            runner.write_logs(results[mode], out / "logs" / mode)
        t.phase = None
        main_s = perf_counter() - start
        speed.append(hostspeed.kernel())

        parallel_s = 0.0
        par_results = {}
        if self.w.parallel:
            # the same jobs at parallel=NPROC are a second `elicit run`, with its own components
            par_comps = runner.build_components(self.cfg, bank)
            t.phase = "parallel"
            start = perf_counter()
            for mode in modes:
                par_results[mode] = runner.run_batch(
                    self.cfg, bank, mode, self.w.episodes, parallel=NPROC, components=par_comps
                )
                runner.write_logs(par_results[mode], out / "parallel" / mode)
            parallel_s = perf_counter() - start
            t.phase = None

        problems = []
        t.phase = "evaluate"
        start = perf_counter()
        for mode in modes:
            logs, ev = out / "logs" / mode, out / "eval" / mode
            ev.mkdir(parents=True)
            with t.span("cli.evaluate"):
                code = _cli(["evaluate", "--logs", logs, "--out", ev / "evaluate.json", "--csv", ev / "episodes.csv"])
            with t.span("cli.report"):
                code = code or _cli(["report", "--logs", logs, "--out-dir", ev / "report"])
            if code:
                problems.append(f"evaluate/report of {mode} exited with {code}")
        evaluate_s = perf_counter() - start
        t.phase = None
        speed.append(hostspeed.kernel())
        main_ref_s = hostspeed.scaled(main_s, speed[1], speed[2])

        problems += checks.self_anchors(out / "logs")
        n_checks = 2 * len(modes) + 1  # evaluate and report per condition, and the anchors
        if self.w.parallel:
            problems += checks.tree_differences(out / "logs", out / "parallel")
            n_checks += 1

        coverage = {}
        for mode in modes:
            path = out / "eval" / mode / "evaluate.json"
            if path.is_file():
                coverage[mode] = json.loads(path.read_text("utf-8"))["mean_coverage"]
        quality = {"mean_coverage": coverage.get(modes[0], 0.0)}
        if "random" in coverage:
            quality["coverage_margin"] = coverage["tpa"] - coverage["random"]

        logs = [log for res in results.values() for log in res.logs]
        batches = list(results.values()) + list(par_results.values())
        attempted = sum(len(res.logs) + len(res.skipped) for res in batches)
        failed = sum(log.aborted for res in batches for log in res.logs) + sum(len(res.skipped) for res in batches)
        return Round(
            main_s=main_s,
            pipeline_s=main_s + parallel_s + evaluate_s,
            main_ref_s=main_ref_s,
            pipeline_ref_s=main_ref_s + hostspeed.scaled(parallel_s + evaluate_s, speed[2], speed[3]),
            turns=sum(len(log.turns) for log in logs),
            planned_turns=sum(len(log.turns) for log in logs if log.mode == "tpa"),
            episodes=attempted,
            failed_episodes=failed,
            evaluated=len(logs) - sum(log.aborted for log in logs),
            evaluate_s=evaluate_s,
            parallel_s=parallel_s,
            quality=quality,
            checks=n_checks,
            problems=problems,
        )

    def _validate(self, out: Path, speed: list[float]) -> Round:
        cfg = fidelity.FidelityConfig(episodes_per_patient=self.w.episodes, turns=TURNS, seed=self.cfg.seed)
        episodes = len(self.bank.patient_ids()) * self.w.episodes
        problems, quality = [], {}
        self.tracer.phase = "validate"
        start = perf_counter()
        try:
            report = fidelity.loo_validate(self.bank, cfg)
        except AssertionError as e:  # loo_validate's retrieval leak check
            problems.append(f"fidelity leak check fired: {e}")
        else:
            (out / "validate.json").write_text(
                json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n", encoding="utf-8"
            )
            quality["fidelity_kl"] = report.kl.mean
        main_s = perf_counter() - start
        self.tracer.phase = None
        speed.append(hostspeed.kernel())
        main_ref_s = hostspeed.scaled(main_s, speed[1], speed[2])
        return Round(
            main_s=main_s,
            pipeline_s=main_s,
            main_ref_s=main_ref_s,
            pipeline_ref_s=main_ref_s,
            turns=0 if problems else episodes * TURNS,
            planned_turns=0,
            episodes=episodes,
            failed_episodes=episodes if problems else 0,
            quality=quality,
            checks=1,
            problems=problems,
        )


def reference_digest(name: str, work_dir: Path) -> str:
    """Digest of one tiny round at the reference seed: it changes when output bytes do."""
    try:
        return Session(tiny(name), REFERENCE_SEED, work_dir).round(0).digest
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


@dataclass
class Outcome:
    metrics: dict[str, float]
    lines: list[str]
    attempted: int
    failed: int
    correct: bool


def run(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: Path,
        trace_path: Path | None = None, min_rounds: int = 3) -> Outcome:
    """Run rounds for `seconds` (at least `min_rounds`) and summarise them.

    With `trace`, untraced and traced rounds alternate, and the per-layer
    figures come from the traced ones.
    """
    session = Session(workload, seed, work_dir)
    tracer = Tracer() if trace else None
    untraced: list[Round] = []
    traced: list[Round] = []
    deadline = perf_counter() + seconds
    index = 0
    while True:
        if tracer is not None and len(traced) < len(untraced):
            session.tracer = tracer
            tracer.round = index
            tracer.install()
            try:
                traced.append(session.round(index))
            finally:
                tracer.uninstall()
                session.tracer = NullTracer()
        else:
            untraced.append(session.round(index))
        index += 1
        enough = len(untraced) >= min_rounds and (tracer is None or len(traced) >= min_rounds)
        if enough and perf_counter() >= deadline:
            break
    rounds = untraced + traced
    setup_s, setup_ref_s = list(session.setup_s), list(session.setup_ref_s)

    problems = [p for r in rounds for p in r.problems]
    repeat = session.round(0).digest
    if repeat != untraced[0].digest:
        problems.append(f"output of round 0 changed when it ran again: {untraced[0].digest} then {repeat}")
    attempted = sum(r.episodes + r.checks for r in rounds) + 1  # + the digest comparison
    failed = sum(r.failed_episodes for r in rounds) + len(problems)
    episodes = sum(r.episodes for r in rounds)
    failed_episodes = sum(r.failed_episodes for r in rounds)

    def tps(rs):
        return _median([r.turns / r.main_s for r in rs])

    quality = untraced[0].quality
    run_level = {
        "runner.parallel.turns_per_s": _median([r.turns / r.parallel_s for r in untraced if r.parallel_s]),
        "metrics.evaluate.episodes_per_s": _median([r.evaluated / r.evaluate_s for r in untraced if r.evaluate_s]),
        "runner.episode_fail_ratio": failed_episodes / episodes if episodes else 0.0,
        "metrics.mean_coverage": quality.get("mean_coverage", 0.0),
        "metrics.coverage_margin": quality.get("coverage_margin", 0.0),
        "fidelity.kl": quality.get("fidelity_kl", 0.0),
    }
    run_level["runner.parallel.speedup"] = (
        run_level["runner.parallel.turns_per_s"] / tps(untraced) if run_level["runner.parallel.turns_per_s"] else 0.0
    )
    lines = [
        f"rounds: {len(untraced)} untraced, {len(traced)} traced; {untraced[0].turns} turns per round",
        f"episodes: {episodes} attempted, {failed_episodes} aborted or skipped "
        f"(fail ratio {run_level['runner.episode_fail_ratio']:.6g} of {episodes})",
        f"round 0 output digest: {untraced[0].digest}"
        + (" (same when run again)" if repeat == untraced[0].digest else " (CHANGED when run again)"),
    ]
    lines += [f"{name} {value:.6g}" for name, value in run_level.items()]
    lines.append(
        f"wall clock, not scaled to reference speed: turns_per_s {tps(untraced):.6g}, "
        f"pipeline_s {_median([r.pipeline_s for r in untraced]):.6g}, setup_s {_median(setup_s):.6g}; "
        f"kernel time {_median([r.main_s / r.main_ref_s for r in untraced]):.4g}x its reference"
    )
    lines += [f"check failed: {p}" for p in problems[:20]]

    if tracer is None:
        metrics = {
            "turns_per_s": _median([r.turns / r.main_ref_s for r in untraced]),
            "pipeline_s": _median([r.pipeline_ref_s for r in untraced]),
            "setup_s": _median(setup_ref_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        main_phases = ("validate",) if workload.kind == "fidelity" else ("run",)
        counts = {key: sum(getattr(r, key) for r in traced) for key in ("turns", "planned_turns", "evaluated")}
        metrics = layer_metrics(tracer.spans, len(traced), main_phases, counts)
        metrics["trace.overhead_ratio"] = tps(untraced) / tps(traced) if tps(traced) else 0.0
        metrics.update(run_level)
        if trace_path is not None:
            tracer.write(trace_path)
            lines.append(f"spans: {len(tracer.spans)} written to {trace_path.name}")
    return Outcome(metrics, lines, attempted, failed, correct=not problems)
