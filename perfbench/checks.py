"""Output checks on what a benchmark round wrote.

They read the files back from disk with plain `json`, independently of the
`elicit` code that wrote them. Each returns a list of problems; an empty
list means the check passed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def _files(root: Path) -> dict[str, Path]:
    return {p.relative_to(root).as_posix(): p for p in root.rglob("*") if p.is_file()}


def tree_digest(root: Path, skip: tuple[str, ...] = ()) -> str:
    """SHA-256 over the relative paths and bytes of every file under `root`.

    Top-level directories named in `skip` are left out.
    """
    h = hashlib.sha256()
    for name, path in sorted(_files(root).items()):
        if name.split("/", 1)[0] in skip:
            continue
        h.update(name.encode("utf-8") + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def self_anchors(log_dir: Path) -> list[str]:
    """Turns whose retrieval anchor belongs to the episode's own patient."""
    problems = []
    for name, path in sorted(_files(log_dir).items()):
        doc = json.loads(path.read_text("utf-8"))
        for turn in doc["turns"]:
            if turn.get("anchor_patient_id") == doc["patient_id"]:
                problems.append(
                    f"{name}: turn {turn['turn']} anchored on its own patient {doc['patient_id']}"
                )
    return problems


def tree_differences(expected: Path, actual: Path) -> list[str]:
    """Files missing from either tree or differing in bytes."""
    a, b = _files(expected), _files(actual)
    problems = [f"missing from {actual.name}: {n}" for n in sorted(a.keys() - b.keys())]
    problems += [f"unexpected in {actual.name}: {n}" for n in sorted(b.keys() - a.keys())]
    problems += [
        f"bytes differ: {n}" for n in sorted(a.keys() & b.keys()) if a[n].read_bytes() != b[n].read_bytes()
    ]
    return problems
