"""Shared dialogue history types used by both agents."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class HistoryTurn:
    question: str
    response: str


def render_history(history: Sequence[HistoryTurn]) -> str:
    """Readable transcript block for prompt assembly."""
    lines = []
    for t in history:
        lines.append(f"Doctor: {t.question}")
        lines.append(f"Patient: {t.response}")
    return "\n".join(lines) if lines else "(no dialogue yet)"
