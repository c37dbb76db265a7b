"""Command-line entry point wiring the full pipeline.

Subcommands: ingest, synth, run, replay, evaluate, validate, report, detect.
Exit codes: 0 success, 1 bad input (`InputError`) or a path that cannot be read
or written (`OSError`), 2 backend failure (`BackendError`).
All randomness flows from a single --seed per invocation.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

from . import __version__
from .backends import HttpBackend, HttpTransport, RecordingTransport, ReplayTransport
from .bank import SynthSpec, ingest, read_object, require_text, synthesize_bank, write_bank
from .config import KINDS, Settings, load_settings
from .detector import build_detector
from .episode_log import BatchResult, read_logs, write_logs
from .errors import BackendError, InputError, numbered_lines
from .metrics import CorpusReport, aggregate
from .ontology import TraitId, default_ontology, load_ontology

# The simulation stack (`runner`, `fidelity`, and with them numpy) is imported
# inside the handlers that build it, so a command that only reads loads none.


class UsageError(InputError):
    """A flag, or what it names, that the command cannot use."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract here is exit 1 plus help
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _load_ontology(path: str | None):
    return load_ontology(path) if path else default_ontology()


def _given(**flags) -> dict:
    """The flags that were given; a flag left at None keeps the config's or the dataclass's value."""
    return {name: value for name, value in flags.items() if value is not None}


def _settings(args, **episode_flags) -> Settings:
    """The --config file's settings under the given flags."""
    settings = load_settings(args.config)
    return dataclasses.replace(
        settings,
        episode=dataclasses.replace(settings.episode, **_given(**episode_flags)),
        ontology_path=args.ontology or settings.ontology_path,
    )


def _client(settings: Settings, record: str | None = None, replay_log: str | None = None) -> HttpBackend:
    # building a client opens no connection; only the kinds that need one use it
    transport = ReplayTransport(replay_log) if replay_log else HttpTransport(settings.backend)
    if record:
        transport = RecordingTransport(transport, record)
    return HttpBackend(settings.backend, transport=transport)


def _detector(settings: Settings, ont):
    """The configured detector alone, for the commands that run nothing else."""
    return build_detector(settings.episode.detector_kind, _client(settings), ont, settings.episode.prompt_dir)


def _write_json(doc: dict, out: str | Path | None) -> None:
    """`doc` as sorted, one-space-indented JSON and a newline, to `out` or else stdout."""
    text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_manifest(out_dir: Path, mode: str, settings: Settings, episode_ids, skipped, ontology_version: str) -> None:
    seed = settings.episode.seed
    blob = json.dumps({"seed": seed, "mode": mode, "settings": settings.to_dict()}, sort_keys=True)
    manifest = {
        "run_id": hashlib.sha256(blob.encode()).hexdigest()[:12],
        "mode": mode,
        "seed": seed,
        "turns": settings.episode.max_turns,
        "episodes": sorted(episode_ids),
        "skipped": sorted(skipped),
        "settings": settings.to_dict(),
        "versions": {"artifact": __version__, "ontology": ontology_version},
        "created_unix": time.time(),
    }
    _write_json(manifest, out_dir / "manifest.json")


def _cmd_ingest(args) -> int:
    bank = ingest(args.path)
    for w in bank.warnings:
        print(f"warning: {w}", file=sys.stderr)
    by_patient = {p: len(v) for p, v in sorted(bank.by_patient.items())}
    print(json.dumps({"snippets": len(bank), "patients": by_patient}, sort_keys=True))
    return 0


def _cmd_synth(args) -> int:
    _check_outputs({"--out": args.out}, {"--ontology": args.ontology})
    ont = _load_ontology(args.ontology)
    spec = SynthSpec(n_patients=args.patients, snippets_per_patient=args.snippets)
    bank = synthesize_bank(spec, seed=args.seed, ontology=ont)
    write_bank(bank, args.out)
    print(f"wrote {len(bank)} snippets for {args.patients} patients to {args.out}")
    return 0


def _fail_if_all_aborted(logs) -> None:
    """Raise the first episode's abort as a BackendError when every episode aborted."""
    if logs and all(log.aborted for log in logs):
        raise BackendError(logs[0].abort_reason.partition(": ")[2])  # "<error type>: <message>"


def _cmd_run(args) -> int:
    from .runner import build_components, run_batch

    floor = 0 if args.mode == "replay" else 1  # 0 in replay mode means one per patient
    if args.episodes < floor:
        raise UsageError(f"--episodes must be >= {floor} in {args.mode} mode")
    if args.parallel < 1:
        raise UsageError("--parallel must be >= 1")
    _check_log_dir(args.out)
    _check_outputs({"--record": args.record}, {
        "--bank": args.bank, "--config": args.config, "--ontology": args.ontology, "--replay-log": args.replay_log
    })
    if args.record and Path(args.record).exists():
        # the recorder appends, so a second run's traffic would follow the first's in one log
        raise UsageError(f"--record {args.record} already exists; give a new path")
    settings = _settings(
        args,
        max_turns=args.turns,
        seed=args.seed,
        selector_kind=args.selector,
        realiser_kind=args.realiser,
        detector_kind=args.detector,
    )
    ont = _load_ontology(settings.ontology_path)
    bank = ingest(args.bank)
    if not len(bank):
        raise UsageError("bank is empty")

    # replay mode runs only the detector, so it gets no bank and builds no retrieval index
    components = build_components(
        settings.episode, None if args.mode == "replay" else bank, ont,
        client=_client(settings, args.record, args.replay_log),
    )
    result = run_batch(
        settings.episode, bank, args.mode, args.episodes, parallel=args.parallel, components=components
    )
    out_dir = Path(args.out)
    write_logs(result, out_dir)
    _write_manifest(out_dir, args.mode, settings, [l.episode_id for l in result.logs], result.skipped, ont.version)
    aborted = sum(1 for l in result.logs if l.aborted)
    print(f"wrote {len(result.logs)} episode logs to {out_dir} ({aborted} aborted, {len(result.skipped)} skipped)")
    _fail_if_all_aborted(result.logs)
    return 0


def _parse_ground_truth(text: str) -> frozenset[TraitId]:
    return frozenset(TraitId.parse(tok.strip()) for tok in text.split(",") if tok.strip())


def _read_transcript(path: str) -> list[tuple[str, str]]:
    pairs = []
    for line_no, raw in numbered_lines(path):
        obj = read_object(line_no, raw)
        pairs.append((require_text(line_no, obj, "question"), require_text(line_no, obj, "response")))
    return pairs


def _cmd_replay(args) -> int:
    from .runner import run_replay

    _check_log_dir(args.out)
    settings = _settings(args, max_turns=args.turns, detector_kind=args.detector)
    ont = _load_ontology(settings.ontology_path)
    transcript = _read_transcript(args.path)
    if not transcript:
        raise UsageError("transcript is empty")
    gt = _parse_ground_truth(args.ground_truth)
    if not gt:
        raise UsageError("ground truth is empty")
    log = run_replay(transcript, gt, settings.episode, _detector(settings, ont), episode_id="replay-0000-manual")
    out_dir = Path(args.out)
    write_logs(BatchResult(logs=(log,), skipped=()), out_dir)
    print(f"wrote replay log to {out_dir}")
    _fail_if_all_aborted([log])
    return 0


def _write_csv(path: Path, header: list[str], rows) -> None:
    """One CSV file; floats are written with six decimals."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.6f}" if isinstance(v, float) else v for v in row] for row in rows)


def _write_episode_csv(report: CorpusReport, path: Path) -> None:
    rows = [[e.episode_id, e.patient_id, e.coverage, e.precision, e.recall, e.f1, e.aucc]
            for e in report.episodes]
    rows += [[], ["corpus", "", report.mean_coverage, report.mean_precision, report.mean_recall,
                  report.mean_f1, report.mean_aucc]]
    _write_csv(path, ["episode_id", "patient_id", "coverage", "precision", "recall", "f1", "aucc"], rows)


def _write_curves_csv(report: CorpusReport, path: Path) -> None:
    curve = zip(report.per_turn_mean_coverage, report.per_turn_ci95)
    rows = [[i, m, max(m - ci, 0.0), min(m + ci, 1.0)] for i, (m, ci) in enumerate(curve, start=1)]
    _write_csv(path, ["turn", "mean_cov", "ci95_low", "ci95_high"], rows)


def _write_strategy_csv(report: CorpusReport, path: Path) -> None:
    phases = {"overall": report.strategy_distribution, **report.phase_distribution}
    rows = [[phase, label, prop] for phase, dist in phases.items() for label, prop in dist.items()]
    _write_csv(path, ["phase", "strategy", "proportion"], rows)


def _check_outputs(outputs: dict[str, str | Path | None], inputs: dict[str, str | None] | None = None) -> None:
    """Raise a UsageError unless each output is a file path in an existing directory and no other output or input.

    None is no output or input. `inputs` are the command's input files, which
    an output that resolves to one would replace. A command checks its outputs
    before it reads any input, so an output it cannot write never leaves
    another behind.
    """
    seen = {Path(path).resolve(): name for name, path in (inputs or {}).items() if path}
    for name, path in outputs.items():
        if path:
            if not Path(path).parent.is_dir():
                raise UsageError(f"{name} {path}: no directory {Path(path).parent}")
            if Path(path).is_dir():
                raise UsageError(f"{name} {path} is a directory")
            if (resolved := Path(path).resolve()) in seen:
                raise UsageError(f"{seen[resolved]} and {name} are the same file {path}")
            seen[resolved] = name


def _check_out_dir(flag: str, out: str) -> None:
    """Raise a UsageError unless `out` is a directory or can be made one: its nearest existing path is a directory."""
    nearest = next(p for p in (Path(out), *Path(out).parents) if p.exists())
    if not nearest.is_dir():
        raise UsageError(f"{flag} {out}: {nearest} is not a directory")


def _check_log_dir(out: str) -> None:
    """Raise a UsageError unless the log directory `--out` can be made and holds no `*.json` file.

    `evaluate` and `report` read every `*.json` file of a directory, so one
    directory holds one run's logs. Checked before any input is read.
    """
    _check_out_dir("--out", out)
    held = min(Path(out).glob("*.json"), default=None)
    if held is not None:
        raise UsageError(f"--out {out} already holds {held.name}; give a new or empty directory")


def _cmd_evaluate(args) -> int:
    curves = Path(args.csv).parent / "curves.csv" if args.csv else None
    _check_outputs({"--out": args.out, "--csv": args.csv, "the curves.csv beside --csv": curves})
    if args.out and Path(args.out).parent.resolve() == Path(args.logs).resolve():
        # the next evaluate or report of --logs would read it as a log
        raise UsageError(f"--out {args.out} is inside --logs {args.logs}; write the report elsewhere")
    report = aggregate(read_logs(args.logs), include_aborted=args.include_aborted)
    _write_json(report.to_dict(), args.out)
    if args.csv:
        _write_episode_csv(report, Path(args.csv))
        _write_curves_csv(report, curves)
    print(
        f"episodes={report.n_episodes} coverage={report.mean_coverage:.3f} "
        f"f1={report.mean_f1:.3f} aucc={report.mean_aucc:.3f}",
        file=sys.stderr,
    )
    return 0


def _cmd_validate(args) -> int:
    from .fidelity import FidelityConfig, loo_validate

    _check_outputs({"--out": args.out}, {"--bank": args.bank, "--ontology": args.ontology})
    ont = _load_ontology(args.ontology)
    bank = ingest(args.bank)
    cfg = FidelityConfig(
        **_given(episodes_per_patient=args.episodes_per_patient, turns=args.turns, seed=args.seed)
    )
    report = loo_validate(bank, cfg, ont)
    _write_json(report.to_dict(), args.out)
    flags = " ".join(f"{k}={'pass' if v else 'FAIL'}" for k, v in report.thresholds_met.items())
    print(f"patients={report.n_patients} {flags}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    _check_out_dir("--out-dir", args.out_dir)
    out_dir = Path(args.out_dir)
    writers = {
        "report.csv": _write_episode_csv, "curves.csv": _write_curves_csv, "strategy_dist.csv": _write_strategy_csv
    }
    for name in writers:
        if (out_dir / name).is_dir():
            raise UsageError(f"--out-dir {args.out_dir}: {out_dir / name} is a directory")
    report = aggregate(read_logs(args.logs), include_aborted=args.include_aborted)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, write in writers.items():
        write(report, out_dir / name)
    print(f"wrote report.csv, curves.csv, strategy_dist.csv to {out_dir}")
    return 0


def _cmd_detect(args) -> int:
    _check_outputs({"--out": args.out}, {"--in": args.path, "--config": args.config, "--ontology": args.ontology})
    settings = _settings(args, detector_kind=args.backend)
    ont = _load_ontology(settings.ontology_path)
    detector = _detector(settings, ont)
    transcript = _read_transcript(args.path)  # every line is checked before any output is written
    out_fh = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for question, response in transcript:
            result = detector.detect(question, response)
            out_fh.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")
    finally:
        if args.out:
            out_fh.close()
    return 0


# name -> (handler, help, flags); each flag is its option string and add_argument's keywords
_COMMANDS = {
    "ingest": (_cmd_ingest, "validate a snippet bank file", {
        "--in": dict(dest="path", required=True),
    }),
    "synth": (_cmd_synth, "generate a synthetic snippet bank", {
        "--patients": dict(type=int, required=True),
        "--snippets": dict(type=int, required=True),
        "--seed": dict(type=int, default=0),
        "--out": dict(required=True),
        "--ontology": dict(default=None),
    }),
    "run": (_cmd_run, "run assessment episodes against a bank", {
        "--bank": dict(required=True),
        "--mode": dict(choices=["tpa", "random", "replay"], default="tpa"),
        "--episodes": dict(type=int, default=0, help="0 in replay mode means one per patient"),
        "--turns": dict(type=int),
        "--seed": dict(type=int),
        "--out": dict(required=True),
        "--parallel": dict(type=int, default=1, help="bound on episodes in flight when a kind waits on a backend"),
        "--selector": dict(choices=KINDS["selector"], default=None),
        "--realiser": dict(choices=KINDS["realiser"], default=None),
        "--detector": dict(choices=KINDS["detector"], default=None),
        "--config": dict(default=None),
        "--ontology": dict(default=None),
        "--record": dict(default=None, help="record backend traffic to this replay log"),
        "--replay-log": dict(default=None, help="serve backend traffic from this replay log"),
    }),
    "replay": (_cmd_replay, "replay an explicit transcript through detection", {
        "--in": dict(dest="path", required=True, help="JSON-lines of {question, response}"),
        "--ground-truth": dict(required=True, help="comma-separated trait ids, e.g. F2,F6"),
        "--turns": dict(type=int),
        "--out": dict(required=True),
        "--detector": dict(choices=KINDS["detector"], default=None),
        "--config": dict(default=None),
        "--ontology": dict(default=None),
    }),
    "evaluate": (_cmd_evaluate, "compute metrics over episode logs", {
        "--logs": dict(required=True),
        "--out": dict(default=None, help="report JSON path"),
        "--csv": dict(default=None, help="per-episode CSV path"),
        "--include-aborted": dict(action="store_true"),
    }),
    "validate": (_cmd_validate, "leave-one-out patient-agent fidelity check", {
        "--bank": dict(required=True),
        "--episodes-per-patient": dict(type=int),
        "--turns": dict(type=int),
        "--seed": dict(type=int),
        "--out": dict(default=None),
        "--ontology": dict(default=None),
    }),
    "report": (_cmd_report, "emit frozen-schema CSVs from episode logs", {
        "--logs": dict(required=True),
        "--out-dir": dict(required=True),
        "--include-aborted": dict(action="store_true"),
    }),
    "detect": (_cmd_detect, "run the trait detector over a transcript file", {
        "--in": dict(dest="path", required=True, help="JSON-lines of {question, response}"),
        "--backend": dict(choices=KINDS["detector"], default=None, help="detector kind"),
        "--out": dict(default=None, help="output JSON-lines path (default stdout)"),
        "--config": dict(default=None),
        "--ontology": dict(default=None),
    }),
}


def _build_parser(names=_COMMANDS) -> _Parser:
    """The parser of the named commands, by default all eight."""
    parser = _Parser(prog="elicit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        _, help_text, flags = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """`argv` parsed by the parser of its command alone, or of every command when it names none.

    Each `add_argument` makes a HelpFormatter, which asks for the terminal size,
    so the parser of one command is several times cheaper to build than that of
    all eight. A usage error parses again with every command, since the top-level
    usage line lists the commands its parser has.
    """
    if argv and argv[0] in _COMMANDS:
        try:
            return _build_parser(argv[:1]).parse_args(argv)
        except UsageError:
            pass
    return _build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
    except UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command][0](args)
    except BackendError as e:
        print(f"backend error: {e}", file=sys.stderr)
        return 2
    except (InputError, OSError) as e:  # OSError: a path that cannot be read or written
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
