"""Text encoding and anchor retrieval.

Finds the bank snippet whose doctor utterance is most similar to the current
question, always excluding the current patient's own records. The fallback
encoder is a deterministic hashed bag-of-tokens; the remote encoder delegates
to the embeddings endpoint in `backends`.
"""

from __future__ import annotations

import math
import re
import zlib
from dataclasses import dataclass

import numpy as np

from .bank import Snippet, SnippetBank

FALLBACK_DIM = 256

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class EmptyTextError(ValueError):
    pass


class DimensionMismatchError(ValueError):
    pass


class EmptyCandidateSetError(ValueError):
    """Raised when excluding the patient leaves no snippet to retrieve from."""


@dataclass(frozen=True)
class Embedding:
    values: np.ndarray
    dim: int

    def __post_init__(self):
        if self.values.shape != (self.dim,):
            raise DimensionMismatchError(f"expected shape ({self.dim},), got {self.values.shape}")
        if not np.isfinite(self.values).all():
            raise ValueError("embedding contains non-finite values")


def _norm(x: np.ndarray) -> float:
    # np.linalg.norm's own sum and rounding for a 1-d vector, without its call overhead
    return math.sqrt(x.dot(x))


class FallbackEncoder:
    """Deterministic dependency-free encoder: hashed token counts, L2-normalised."""

    def __init__(self, dim: int = FALLBACK_DIM):
        self.dim = dim

    def encode(self, text: str) -> Embedding:
        stripped = text.strip()
        if not stripped:
            raise EmptyTextError("cannot encode empty text")
        vec = np.zeros(self.dim, dtype=np.float64)
        tokens = _TOKEN_RE.findall(stripped.lower())
        if not tokens:
            vec[0] = 1.0  # punctuation-only input still gets a unit vector
        for tok in tokens:
            vec[zlib.crc32(tok.encode("utf-8")) % self.dim] += 1.0
        vec /= _norm(vec)
        return Embedding(values=vec, dim=self.dim)


class RemoteEncoder:
    """Encoder backed by the embeddings endpoint; vectors are re-normalised here."""

    def __init__(self, client):
        self.client = client

    def encode(self, text: str) -> Embedding:
        stripped = text.strip()
        if not stripped:
            raise EmptyTextError("cannot encode empty text")
        vec = np.asarray(self.client.embed([stripped])[0], dtype=np.float64)
        norm = np.linalg.norm(vec)
        if norm > 0:
            vec = vec / norm
        return Embedding(values=vec, dim=len(vec))


def cosine(u: Embedding, v: Embedding) -> float:
    if u.dim != v.dim:
        raise DimensionMismatchError(f"dim mismatch: {u.dim} vs {v.dim}")
    nu = _norm(u.values)
    nv = _norm(v.values)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    val = float(np.dot(u.values, v.values) / (nu * nv))
    return min(1.0, max(-1.0, val))


def _tie_key(s: Snippet) -> tuple:
    # content-based: permuting bank order must never change the winner
    return (s.patient_id, s.session_id, s.scenario_id, s.doctor_curr, s.patient_reply)


class AnchorRetriever:
    """Indexes one bank's doctor utterances and retrieves anchors.

    Scripted prompts repeat across patients, so the index holds each distinct
    `doctor_curr` text once: a (distinct texts, dim) matrix of encodings, their
    inverse norms, and each bank row's text index. A query is scored against
    the texts with one mat-vec and the scores are gathered out to the rows, so
    excluding a patient drops its rows but not a text other patients share.
    The shortlisted texts, those within SHORTLIST_MARGIN of the best, are
    re-scored once each with the scalar `cosine`, so the winner and its score
    are exactly those of a brute-force scan. Ties still go to the lowest
    `_tie_key`, then the lowest row.

    Retrieval audit: every retrieved snippet's patient id is appended to
    `audit_log`, which validation harnesses may inspect for leakage.
    """

    # far above the few-ulp gap between the mat-vec and `cosine`
    SHORTLIST_MARGIN = 1e-9

    def __init__(self, bank: SnippetBank, backend):
        if len(bank) == 0:
            raise EmptyCandidateSetError("bank is empty")
        self.bank = bank
        self.backend = backend
        text_index: dict[str, int] = {}
        self._row_text = np.fromiter(
            (text_index.setdefault(s.doctor_curr, len(text_index)) for s in bank.snippets),
            dtype=np.intp,
            count=len(bank),
        )
        encoded = (backend.encode(text) for text in text_index)
        first = next(encoded)
        self._matrix = np.empty((len(text_index), first.dim), dtype=np.float64)
        self._matrix[0] = first.values
        for i, e in enumerate(encoded, start=1):
            self._check_dim(e)
            self._matrix[i] = e.values
        # norms without a (texts, dim) temporary; zero rows score 0 like `cosine`
        norms = np.sqrt(np.einsum("ij,ij->i", self._matrix, self._matrix))
        self._inv_norms = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
        self.audit_log: list[str] = []

    def _check_dim(self, e: Embedding) -> None:
        if e.dim != self._matrix.shape[1]:
            raise DimensionMismatchError(f"dim mismatch: {e.dim} vs index {self._matrix.shape[1]}")

    def retrieve(self, query: str, exclude_patient: str) -> tuple[Snippet, float]:
        q = self.backend.encode(query)
        self._check_dim(q)
        q_norm = np.linalg.norm(q.values)
        # einsum runs on this thread: BLAS splits a large mat-vec across its own threads,
        # which stalled for milliseconds at a time on a 2-vCPU host
        text_scores = np.einsum("ij,j->i", self._matrix, q.values)
        text_scores *= self._inv_norms
        text_scores *= 1.0 / q_norm if q_norm > 0 else 0.0
        scores = text_scores[self._row_text]
        scores[np.asarray(self.bank.by_patient.get(exclude_patient, ()), dtype=np.intp)] = -np.inf
        top = scores.max()
        if top == -np.inf:
            raise EmptyCandidateSetError(
                f"every snippet belongs to excluded patient {exclude_patient!r}"
            )
        dim = self._matrix.shape[1]
        snippets = self.bank.snippets
        rows = np.flatnonzero(scores >= top - self.SHORTLIST_MARGIN)
        texts = self._row_text[rows].tolist()
        exact = {t: cosine(q, Embedding(self._matrix[t], dim)) for t in set(texts)}
        shortlist = [(exact[t], _tie_key(snippets[i]), i) for i, t in zip(rows.tolist(), texts)]
        score, _, best = min(shortlist, key=lambda c: (-c[0], c[1], c[2]))
        snippet = snippets[best]
        self.audit_log.append(snippet.patient_id)
        return snippet, score

