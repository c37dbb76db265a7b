"""Prompt template loading and structured-output parsing helpers.

Prompt texts live in versioned template files under ``prompts/``, not in
code; a custom directory can be supplied for experimentation. A role sends its
filled template as one prompt string, with its temperature, and `complete_parsed`
reads every reply; `complete_json` the selector's and detector's JSON.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import Callable, Mapping, TypeVar

from .errors import parse_json, read_text

T = TypeVar("T")


def load_prompt(name: str, prompt_dir: str | Path | None) -> str:
    if prompt_dir is not None:
        return read_text(Path(prompt_dir) / f"{name}.txt")
    return resources.files("elicit").joinpath(f"prompts/{name}.txt").read_text("utf-8")


def extract_json_object(text: str, keys: Mapping[str, type]) -> dict:
    """Pull the first JSON object out of a completion (models wrap in prose/fences).

    Each key in `keys` must hold a value of exactly that JSON type, as
    `json.loads` makes them: "false" and 1 are not bools, null is not a str.
    """
    start = text.find("{")
    end = text.rfind("}")
    if start < 0 or end <= start:
        raise ValueError("no JSON object in completion")
    doc = parse_json(text[start : end + 1])
    if not isinstance(doc, dict):
        raise ValueError("completion JSON is not an object")
    for key, kind in keys.items():
        if type(doc.get(key)) is not kind:
            raise ValueError(f"{key} must be a {kind.__name__}, got {doc.get(key)!r}")
    return doc


def complete_parsed(client, prompt: str, temperature: float, parse: Callable[[str], T], error: type[Exception]) -> T:
    """Send `prompt` at `temperature` and build a value from the reply text with `parse`.

    `parse` may reject the reply with ValueError. A rejected reply is asked
    for once more; a second rejection raises `error`.
    """
    for attempt in range(2):
        text = client.complete(prompt, temperature)  # a backend failure is not retried here
        try:
            return parse(text)
        except ValueError as e:
            if attempt:
                raise error(f"unusable reply after one retry: {e}") from e


def complete_json(
    client,
    prompt: str,
    temperature: float,
    keys: Mapping[str, type],
    parse: Callable[[dict], T],
    error: type[Exception],
) -> T:
    """`complete_parsed` of `parse` on the reply's first JSON object, whose `keys` are typed as given."""
    return complete_parsed(client, prompt, temperature, lambda text: parse(extract_json_object(text, keys)), error)
