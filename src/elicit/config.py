"""Run configuration: dotted-key text files merged under CLI flags.

Precedence is CLI flag > config file > built-in default. The effective
settings are snapshotted into the run manifest.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Settings:
    # selector.*
    selector_kind: str = "heuristic"
    selector_temperature: float = 0.7
    selector_prompt_dir: str | None = None
    # realiser.*
    realiser_kind: str = "template"
    realiser_temperature: float = 0.7
    # detector.*
    detector_kind: str = "rule"
    # encoder.*
    encoder_kind: str = "fallback"
    # emitter.*
    emitter_M: float = 4.0
    emitter_max_traits: int = 2
    emitter_strategy_gain: float = 0.0
    emitter_affinity_enabled: bool = False
    emitter_affinity_weight: float = 0.0
    # backend.*
    backend_endpoint: str = "http://localhost:8000"
    backend_model: str = ""
    backend_embed_model: str = ""
    backend_timeout_s: float = 60.0
    backend_max_concurrency: int = 4
    # run-level
    tau: float = 0.6
    ontology_path: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


_KEY_MAP = {
    "selector.kind": ("selector_kind", str),
    "selector.temperature": ("selector_temperature", float),
    "selector.prompt_dir": ("selector_prompt_dir", str),
    "realiser.kind": ("realiser_kind", str),
    "realiser.temperature": ("realiser_temperature", float),
    "detector.kind": ("detector_kind", str),
    "encoder.kind": ("encoder_kind", str),
    "emitter.M": ("emitter_M", float),
    "emitter.max_traits": ("emitter_max_traits", int),
    "emitter.strategy_gain": ("emitter_strategy_gain", float),
    "emitter.affinity_enabled": ("emitter_affinity_enabled", None),
    "emitter.affinity_weight": ("emitter_affinity_weight", float),
    "backend.endpoint": ("backend_endpoint", str),
    "backend.model": ("backend_model", str),
    "backend.embed_model": ("backend_embed_model", str),
    "backend.timeout_s": ("backend_timeout_s", float),
    "backend.max_concurrency": ("backend_max_concurrency", int),
    "tau": ("tau", float),
    "ontology": ("ontology_path", str),
}

_TRUTHY = {"1", "true", "yes", "on"}
_FALSY = {"0", "false", "no", "off"}


class ConfigError(ValueError):
    pass


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in _TRUTHY:
        return True
    if low in _FALSY:
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def load_settings(path: str | Path | None = None) -> Settings:
    """Parse `key = value` lines; '#' starts a comment, blank lines ignored."""
    settings = Settings()
    if path is None:
        return settings
    for line_no, raw in enumerate(Path(path).read_text("utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_MAP:
            raise ConfigError(f"line {line_no}: unknown config key {key!r}")
        attr, cast = _KEY_MAP[key]
        try:
            setattr(settings, attr, _parse_bool(value) if cast is None else cast(value))
        except ValueError as e:
            raise ConfigError(f"line {line_no}: bad value for {key}: {e}") from None
    return settings
