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
from typing import Sequence

import numpy as np

from .bank import Snippet, SnippetBank
from .errors import BackendError, InputError

FALLBACK_DIM = 256

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class EmptyTextError(ValueError):
    pass


class DimensionMismatchError(BackendError):
    """Vectors of unequal length, which only a remote encoder can return."""


class EmptyCandidateSetError(InputError):
    """Raised when excluding the patient leaves no snippet to retrieve from: a bank of one patient."""


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

    dim = FALLBACK_DIM

    def encode(self, text: str) -> Embedding:
        stripped = text.strip()
        if not stripped:
            raise EmptyTextError("cannot encode empty text")
        # punctuation-only input still gets a unit vector, in bucket 0
        buckets = [zlib.crc32(tok.encode("utf-8")) % self.dim for tok in _TOKEN_RE.findall(stripped.lower())]
        vec = np.bincount(buckets or [0], minlength=self.dim).astype(np.float64)
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
    `_tie_key`, then the lowest row. `nearest` scores a batch of query vectors
    against given rows with the same product, margin and re-scoring.

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

    def _scores(self, queries: Sequence[Embedding], texts: np.ndarray | slice = slice(None)) -> np.ndarray:
        """Each query's cosine to each of `texts` (default every text), to within a few ulps.

        One (queries, texts) product; einsum runs on this thread: BLAS splits a
        large product across its own threads, which stalled for milliseconds at
        a time on a 2-vCPU host.
        """
        values = np.empty((len(queries), self._matrix.shape[1]))
        inv_q = np.empty((len(queries), 1))
        for k, q in enumerate(queries):
            self._check_dim(q)
            values[k] = q.values
            q_norm = _norm(q.values)
            inv_q[k] = 1.0 / q_norm if q_norm > 0 else 0.0
        scores = np.einsum("kj,ij->ki", values, self._matrix[texts])
        scores *= self._inv_norms[texts]
        scores *= inv_q
        return scores

    def _exact(self, q: Embedding, texts: list[int]) -> dict[int, float]:
        """The scalar `cosine` of `q` to each distinct text of a shortlist."""
        dim = self._matrix.shape[1]
        return {t: cosine(q, Embedding(self._matrix[t], dim)) for t in set(texts)}

    def retrieve(self, query: str, exclude_patient: str) -> tuple[Snippet, float]:
        q = self.backend.encode(query)
        scores = self._scores([q])[0][self._row_text]
        scores[np.asarray(self.bank.by_patient.get(exclude_patient, ()), dtype=np.intp)] = -np.inf
        top = scores.max()
        if top == -np.inf:
            raise EmptyCandidateSetError(
                f"every snippet belongs to excluded patient {exclude_patient!r}"
            )
        snippets = self.bank.snippets
        rows = np.flatnonzero(scores >= top - self.SHORTLIST_MARGIN)
        texts = self._row_text[rows].tolist()
        exact = self._exact(q, texts)
        shortlist = [(exact[t], _tie_key(snippets[i]), i) for i, t in zip(rows.tolist(), texts)]
        score, _, best = min(shortlist, key=lambda c: (-c[0], c[1], c[2]))
        snippet = snippets[best]
        self.audit_log.append(snippet.patient_id)
        return snippet, score

    def nearest(self, rows: Sequence[int], queries: Sequence[Embedding]) -> list[int]:
        """For each query, the position in `rows` of the bank row whose doctor text is nearest.

        Nearest is by exact `cosine`, as in `retrieve`: one product scores every
        query against the rows' texts, and a query whose shortlist holds more
        than one row is re-scored with `cosine`. Ties go to the earliest position.
        """
        texts = self._row_text[np.asarray(rows, dtype=np.intp)]
        scores = self._scores(queries, texts)
        shortlisted = scores >= scores.max(axis=1, keepdims=True) - self.SHORTLIST_MARGIN
        picks = shortlisted.argmax(axis=1).tolist()  # the first shortlisted row
        for k in np.flatnonzero(shortlisted.sum(axis=1) > 1).tolist():
            positions = np.flatnonzero(shortlisted[k]).tolist()
            exact = self._exact(queries[k], texts[positions].tolist())
            picks[k] = max(positions, key=lambda i: (exact[texts[i]], -i))
        return picks
