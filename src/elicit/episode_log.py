"""The episode-log format: one checked JSON object per episode, one file per log.

`EpisodeLog.to_json` writes a log as its one line of text, and `read_logs`
reads a directory of them back, one checked log at a time. A file that does
not parse into an `EpisodeLog` raises `LogFormatError` naming it. This module
needs neither numpy nor the simulation stack, so the commands that only read
logs (`evaluate`, `report`) load neither.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from operator import contains
from pathlib import Path
from typing import Iterator, get_args, get_origin, get_type_hints

from . import belief as belief_mod
from .errors import InputError, parse_json, read_text
from .ontology import TRAIT_BY_NAME, TraitId


class LogFormatError(InputError):
    """An episode log file that does not parse into an EpisodeLog."""


@functools.cache
def _json_types(cls: type) -> dict[str, tuple[type, ...]]:
    """Each field's JSON types, from its annotation: a frozenset or tuple is a list, a float may be an int."""
    types = {}
    for name, hint in get_type_hints(cls).items():
        allowed = (list,) if get_origin(hint) in (frozenset, tuple) else get_args(hint) or (hint,)
        types[name] = allowed + (int,) if float in allowed else allowed
    return types


def _typed(cls: type, d) -> dict:
    """Return `d` once it holds every field of `cls`, no other key, and values of the fields' JSON types.

    Types are exact, as json.loads makes them: true is a bool, never an int.
    """
    if not isinstance(d, dict):
        raise LogFormatError(f"expected a JSON object, got {type(d).__name__}")
    types = _json_types(cls)
    if d.keys() != types.keys():  # a written log holds every key
        if missing := sorted(types.keys() - d.keys()):
            raise LogFormatError(f"missing key {', '.join(missing)}")
        if unknown := sorted(d.keys() - types.keys()):
            raise LogFormatError(f"unknown key {', '.join(unknown)}")
    # one scan in C; the loop runs only to word the fault
    if not all(map(contains, types.values(), map(type, map(d.__getitem__, types)))):
        for key, value in d.items():
            if type(value) not in types[key]:
                raise LogFormatError(f"{key} must be {' or '.join(t.__name__ for t in types[key])}, got {value!r}")
    return d


def _built(cls: type, d: dict):
    """An instance of the frozen dataclass `cls` holding `d`'s values, made without running `__init__`.

    Only for a `d` that `_typed` has proven to hold exactly the fields of
    `cls`: the generated `__init__` would only store each of them in the
    instance's `__dict__`, since these classes have no `__post_init__` and no
    field is left to its default.
    """
    obj = object.__new__(cls)
    vars(obj).update(d)
    return obj


@dataclass(frozen=True)
class TurnRecord:
    turn: int
    strategy: str  # strategy id or "replay"
    question: str
    response: str
    detections: dict
    confirmed: list  # trait ids confirmed after this turn, in trait order
    thought: dict | None = None
    topic_id: int | None = None
    anchor_patient_id: str | None = None
    anchor_session_id: str | None = None
    anchor_score: float | None = None

    def to_dict(self) -> dict:
        return dict(vars(self))  # one key per field, as _turn_record reads them


def _turn_record(d) -> tuple[TurnRecord, set[str]]:
    """The turn record `d` holds and the set of its confirmed trait ids, checked known and distinct."""
    names = _typed(TurnRecord, d)["confirmed"]
    try:
        latched = set(names)  # an entry that is no str fails the subset test below, or cannot hash
    except TypeError:
        latched = None
    if latched is None or len(latched) < len(names) or not latched <= TRAIT_BY_NAME.keys():
        raise LogFormatError(f"confirmed must list distinct trait ids F1..F10, got {names!r}")
    return _built(TurnRecord, d), latched


@dataclass(frozen=True)
class EpisodeLog:
    episode_id: str
    patient_id: str
    mode: str
    seed: int
    max_turns: int
    tau: float
    ground_truth: frozenset[TraitId]
    turns: tuple[TurnRecord, ...]
    aborted: bool = False
    abort_reason: str | None = None

    def to_dict(self) -> dict:
        return {
            **vars(self),  # one key per field, as from_dict reads them
            "ground_truth": [t.name for t in sorted(self.ground_truth)],
            "turns": [t.to_dict() for t in self.turns],
        }

    def to_json(self) -> str:
        # a log is a tree of fresh containers, so the encoder's cycle check finds nothing
        return json.dumps(self.to_dict(), sort_keys=True, ensure_ascii=False, check_circular=False)

    @classmethod
    def from_dict(cls, d: dict) -> "EpisodeLog":
        names = _typed(cls, d)["ground_truth"]
        if not all(type(n) is str and n in TRAIT_BY_NAME for n in names):
            raise LogFormatError(f"ground_truth must list trait ids F1..F10, got {names!r}")
        records = list(map(_turn_record, d["turns"]))  # (turn record, its set of confirmed trait ids)
        log = _built(cls, {
            **d,  # one key per field, as to_dict writes them
            "ground_truth": frozenset(TRAIT_BY_NAME[n] for n in names),
            "turns": tuple(turn for turn, _ in records),
        })
        if not 1 <= log.max_turns <= belief_mod.MAX_TURNS:
            raise LogFormatError(f"max_turns must be in 1..{belief_mod.MAX_TURNS}, got {log.max_turns}")
        if not log.ground_truth:
            raise LogFormatError("ground_truth must be non-empty")
        numbers = [t.turn for t in log.turns]
        if numbers != list(range(1, len(numbers) + 1)):
            raise LogFormatError(f"turns must be numbered 1..{len(numbers)} in order, got {numbers}")
        if len(numbers) > log.max_turns:
            raise LogFormatError(f"{len(numbers)} turns exceed max_turns {log.max_turns}")
        for (before, was), (after, now) in zip(records, records[1:]):
            if not was <= now:
                raise LogFormatError(f"turn {after.turn} drops a trait confirmed at turn {before.turn}")
        if log.aborted != (log.abort_reason is not None):
            raise LogFormatError(f"aborted is {log.aborted} but abort_reason is {log.abort_reason!r}")
        return log

    @classmethod
    def from_json(cls, text: str) -> "EpisodeLog":
        return cls.from_dict(parse_json(text))


@dataclass(frozen=True)
class BatchResult:
    logs: tuple[EpisodeLog, ...]
    skipped: tuple[str, ...]


def write_logs(result: BatchResult, out_dir: str | Path) -> list[Path]:
    """Write each log to `<episode_id>.json` as its one line of `to_json` text and a newline."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for log in sorted(result.logs, key=lambda l: l.episode_id):
        p = out / f"{log.episode_id}.json"
        p.write_text(log.to_json() + "\n", encoding="utf-8")
        paths.append(p)
    return paths


def read_logs(log_dir: str | Path) -> Iterator[EpisodeLog]:
    """Each episode log in `log_dir` but `manifest.json`, read and checked one at a time in file-name order.

    The directory is checked and listed at the call. When it holds a
    `manifest.json`, its other `*.json` files must be exactly the manifest's
    `episodes`, each as `<episode_id>.json`; the first extra or missing file
    in name order raises `LogFormatError` naming it. A malformed file raises
    `LogFormatError` naming it when the iteration reaches it, so a caller that
    writes only after the last log writes nothing for a bad directory.
    """
    if not Path(log_dir).is_dir():
        raise LogFormatError(f"{log_dir}: not a directory")
    paths = sorted(p for p in Path(log_dir).glob("*.json") if p.name != "manifest.json")
    manifest = Path(log_dir) / "manifest.json"
    if manifest.is_file():
        held = {p.name for p in paths}
        name = min(_listed_logs(manifest) ^ held, default=None)
        if name is not None:
            fault = "is not listed in" if name in held else "is missing; it is listed in"
            raise LogFormatError(f"{Path(log_dir) / name} {fault} {manifest}")
    return map(_read_log, paths)


def _listed_logs(manifest: Path) -> set[str]:
    """The `<episode_id>.json` file names of a run manifest's `episodes`."""
    try:
        doc = parse_json(read_text(manifest))
    except json.JSONDecodeError as e:
        raise LogFormatError(f"{manifest}: JSONDecodeError: {e}") from e
    episodes = doc.get("episodes") if isinstance(doc, dict) else None
    if not isinstance(episodes, list) or not all(type(e) is str for e in episodes):
        raise LogFormatError(f"{manifest}: episodes must be a list of episode ids")
    return {f"{e}.json" for e in episodes}


def _read_log(path: Path) -> EpisodeLog:
    try:
        return EpisodeLog.from_json(path.read_text("utf-8"))
    except (InputError, json.JSONDecodeError, UnicodeDecodeError) as e:  # a bug keeps its traceback
        raise LogFormatError(f"{path}: {type(e).__name__}: {e}") from e
