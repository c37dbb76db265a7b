"""Run configuration: dotted-key text files merged under CLI flags.

Precedence is CLI flag > config file > built-in default. Each key names one
field of the dataclass that reads it, and that field's default is the only
default; the field's annotation gives the key's type. The effective settings
are snapshotted into the run manifest, keyed as in the file. The episode
config and each role's `KINDS` live here, not in `runner`, so the parser and
`Settings` load no simulation stack.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

from . import belief as belief_mod
from .backends import BackendConfig
from .errors import InputError, numbered_lines
from .patient import EmissionParams

# each role's kinds: the deterministic one, then the one that needs a backend client
KINDS = {
    "encoder": ("fallback", "remote"),
    "selector": ("heuristic", "llm"),
    "realiser": ("template", "llm"),
    "detector": ("rule", "llm"),
}


@dataclass(frozen=True)
class EpisodeConfig:
    max_turns: int = 20
    tau: float = belief_mod.DEFAULT_TAU
    seed: int = 0
    selector_kind: str = "heuristic"
    realiser_kind: str = "template"
    detector_kind: str = "rule"
    encoder_kind: str = "fallback"
    emission: EmissionParams = field(default_factory=EmissionParams)
    selector_temperature: float = 0.7
    realiser_temperature: float = 0.7
    prompt_dir: str | None = None

    def __post_init__(self):
        if not 1 <= self.max_turns <= belief_mod.MAX_TURNS:
            raise InputError(f"max_turns must be in 1..{belief_mod.MAX_TURNS}, got {self.max_turns}")
        if not 0.0 <= self.tau < 1.0:  # also false for nan
            raise InputError(f"tau must be in [0, 1), got {self.tau}")
        for name in ("selector_temperature", "realiser_temperature"):
            if not 0.0 <= getattr(self, name) < math.inf:  # also false for nan
                raise InputError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        for role, kinds in KINDS.items():
            if (kind := getattr(self, f"{role}_kind")) not in kinds:
                raise InputError(f"unknown {role} kind {kind!r}")


@dataclass(frozen=True)
class Settings:
    """Everything a config file can set: the episode config with its emission params,
    the backend config, and the ontology path."""

    episode: EpisodeConfig = field(default_factory=EpisodeConfig)
    backend: BackendConfig = field(default_factory=BackendConfig)
    ontology_path: str | None = None

    def to_dict(self) -> dict:
        owners = {
            EpisodeConfig: self.episode,
            EmissionParams: self.episode.emission,
            BackendConfig: self.backend,
            Settings: self,
        }
        return {key: getattr(owners[cls], name) for key, (cls, name) in KEYS.items()}


KEYS: dict[str, tuple[type, str]] = {
    "selector.kind": (EpisodeConfig, "selector_kind"),
    "selector.temperature": (EpisodeConfig, "selector_temperature"),
    "selector.prompt_dir": (EpisodeConfig, "prompt_dir"),
    "realiser.kind": (EpisodeConfig, "realiser_kind"),
    "realiser.temperature": (EpisodeConfig, "realiser_temperature"),
    "detector.kind": (EpisodeConfig, "detector_kind"),
    "encoder.kind": (EpisodeConfig, "encoder_kind"),
    "emitter.M": (EmissionParams, "M"),
    "emitter.max_traits": (EmissionParams, "max_traits_per_turn"),
    "emitter.strategy_gain": (EmissionParams, "strategy_gain"),
    "backend.endpoint": (BackendConfig, "endpoint"),
    "backend.model": (BackendConfig, "model"),
    "backend.embed_model": (BackendConfig, "embed_model"),
    "backend.timeout_s": (BackendConfig, "timeout_s"),
    "tau": (EpisodeConfig, "tau"),
    "ontology": (Settings, "ontology_path"),
}


class ConfigError(InputError):
    pass


def _field_type(cls: type, name: str) -> type:
    # `str | None` parses as str: a key that is set always has a value
    hint = typing.get_type_hints(cls)[name]
    return next((a for a in typing.get_args(hint) if a is not type(None)), hint)


def load_settings(path: str | Path | None = None) -> Settings:
    """Parse `key = value` lines, which end at "\\n" only; '#' starts a comment, blank lines ignored."""
    values: dict[type, dict] = {cls: {} for cls, _ in KEYS.values()}
    if path is not None:
        for line_no, raw in numbered_lines(path):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in KEYS:
                raise ConfigError(f"line {line_no}: unknown config key {key!r}")
            cls, name = KEYS[key]
            try:
                if "\0" in value:  # no value holds one, and open() raises ValueError on a path that does
                    raise ValueError("a NUL character")
                values[cls][name] = _field_type(cls, name)(value)
            except ValueError as e:
                raise ConfigError(f"line {line_no}: bad value for {key}: {e}") from None
    emission = EmissionParams(**values[EmissionParams])
    return Settings(
        episode=EpisodeConfig(emission=emission, **values[EpisodeConfig]),
        backend=BackendConfig(**values[BackendConfig]),
        **values[Settings],
    )
