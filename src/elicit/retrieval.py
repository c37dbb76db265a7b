"""Text encoding and anchor retrieval.

Finds the bank snippet whose doctor utterance is most similar to the current
question, always excluding the current patient's own records. A vector is a
1-d float64 `np.ndarray`. Every encoder returns it at unit length, or all zeros
for a zero row from a remote service. The fallback encoder is a deterministic
hashed bag-of-tokens; the remote encoder delegates to the embeddings endpoint
in `backends` and scales its rows, the one place they are scaled. Each encoder
also has `encode_many(texts)`, whose rows equal `encode` of each text: the
fallback encoder counts a whole batch with one `bincount`, and the remote
encoder posts one request per text, as `encode` does.
"""

from __future__ import annotations

import bisect
import math
import zlib
from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np

from .bank import Snippet, SnippetBank
from .errors import BackendError, InputError

FALLBACK_DIM = 256
MEMO_CAP = 4096  # texts each `AnchorRetriever` memo holds; with the llm selector nearly every question is new

# every byte but a-z and 0-9 to a space. UTF-8 writes a non-ASCII character in bytes >= 0x80 only, so the
# translated UTF-8 of a text splits into exactly the runs `[a-z0-9]+` finds in the text
_SEPARATORS = bytes(b if b in b"abcdefghijklmnopqrstuvwxyz0123456789" else 32 for b in range(256))


class EmptyTextError(ValueError):
    pass


class DimensionMismatchError(BackendError):
    """Vectors of unequal length, which only a remote encoder can return."""


class EmptyCandidateSetError(InputError):
    """Raised when excluding the patient leaves no snippet to retrieve from: a bank of one patient."""


def _norm(x: np.ndarray) -> float:
    # np.linalg.norm's own sum and rounding for a 1-d vector, without its call overhead
    return math.sqrt(x.dot(x))


def _tokens(text: str) -> list[bytes]:
    """The runs of a-z and 0-9 in the lowercased text, as bytes, or [b""] when it has none.

    crc32(b"") is 0, so a punctuation-only text counts once in bucket 0.
    """
    stripped = text.strip()
    if not stripped:
        raise EmptyTextError("cannot encode empty text")
    return stripped.lower().encode("utf-8", "surrogatepass").translate(_SEPARATORS).split() or [b""]


class FallbackEncoder:
    """Deterministic dependency-free encoder: hashed token counts, L2-normalised."""

    def encode(self, text: str) -> np.ndarray:
        buckets = [zlib.crc32(tok) % FALLBACK_DIM for tok in _tokens(text)]
        vec = np.bincount(buckets, minlength=FALLBACK_DIM).astype(np.float64)
        vec /= _norm(vec)
        return vec

    def encode_many(self, texts: Sequence[str]) -> np.ndarray:
        """A (len(texts), FALLBACK_DIM) matrix whose rows are bit-identical to `encode` of each text.

        One weighted `bincount` over `row * FALLBACK_DIM + bucket` counts the
        whole batch straight into float64, with no integer copy. Counts are
        small integers, so each row's squared sum is exact and its root equals
        `_norm`'s.
        """
        tokens = [_tokens(text) for text in texts]
        lengths = np.fromiter(map(len, tokens), dtype=np.intp, count=len(tokens))
        buckets = np.fromiter(map(zlib.crc32, chain.from_iterable(tokens)), dtype=np.intp, count=lengths.sum())
        buckets %= FALLBACK_DIM
        buckets += np.repeat(np.arange(len(tokens)) * FALLBACK_DIM, lengths)
        counts = np.bincount(buckets, weights=np.ones(len(buckets)), minlength=len(tokens) * FALLBACK_DIM)
        matrix = counts.reshape(len(tokens), FALLBACK_DIM).astype(np.float64, copy=False)  # int64 when empty
        matrix /= np.sqrt(np.einsum("ij,ij->i", matrix, matrix))[:, None]
        return matrix


class RemoteEncoder:
    """Encoder backed by the embeddings endpoint: the client's row, scaled to unit length here and only here.

    A zero row stays all zeros. The client (`HttpBackend.embed`) checks each row
    is a non-empty list of finite numbers and returns it unscaled.
    """

    def __init__(self, client):
        self.client = client

    def encode(self, text: str) -> np.ndarray:
        stripped = text.strip()
        if not stripped:
            raise EmptyTextError("cannot encode empty text")
        vec = np.array(self.client.embed([stripped])[0], dtype=np.float64)
        peak = np.abs(vec).max()
        if peak > 0:
            # a power-of-two rescale is exact and lifts a subnormal row, whose norm would keep
            # only a few bits, into the normal range
            vec = np.ldexp(vec, -math.frexp(peak)[1])
            vec /= math.hypot(*vec)
        return vec

    def encode_many(self, texts: Sequence[str]) -> np.ndarray:
        """`encode` of each text in order, one request each so the posted bodies do not change, as matrix rows.

        Rows of unequal length raise DimensionMismatchError.
        """
        rows = [self.encode(text) for text in texts]
        for row in rows[1:]:
            if row.shape != rows[0].shape:
                raise DimensionMismatchError(f"dim mismatch: {row.shape} vs {rows[0].shape}")
        return np.array(rows)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    if u.shape != v.shape:
        raise DimensionMismatchError(f"dim mismatch: {u.shape} vs {v.shape}")
    nu = _norm(u)
    nv = _norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    val = float(np.dot(u, v) / (nu * nv))
    return min(1.0, max(-1.0, val))


# content-based: permuting bank order must never change the winner
_tie_key = attrgetter("patient_id", "session_id", "scenario_id", "doctor_curr", "patient_reply")
_patient = attrgetter("patient_id")


class AnchorRetriever:
    """Indexes one bank's doctor utterances and retrieves anchors.

    Scripted prompts repeat across patients, so the distinct `doctor_curr`
    text is the unit of both scoring and selection. The index holds each
    text once: a (distinct texts, dim) matrix of encodings, built with one
    `encoder.encode_many` call in first-appearance order, and each bank row's
    text index. Encoders return unit vectors (or zero rows), so a query's
    product with a text is their cosine to within a few ulps and the index
    holds no norms. Each text also gets its snippets in (`_tie_key`, row)
    order, built on the text's first shortlisting; the key starts with the
    patient id, so one patient's snippets of a text are one run of that order.

    A query is scored against the texts with one mat-vec. The texts within
    SHORTLIST_MARGIN of the best eligible text are re-scored once each with
    the scalar `cosine`, so the winner and its score are exactly those of a
    brute-force scan over the rows. Every text is eligible unless a patient
    is excluded; then only texts with a row of another patient are, and such
    a text offers its first snippet outside that patient's run. Among the
    texts with the best exact score, the offer with the lowest `_tie_key`
    wins; offers of two texts never share a key, as it holds the text.
    `nearest` scores a batch of query vectors against given rows with the
    same product, margin and re-scoring.

    `retrieve` remembers its answers by query text alone. Let W be the winner
    with nothing excluded and W' the winner with W's patient excluded; both
    are minima of one order (best exact score, lowest `_tie_key`, lowest row),
    so excluding patient P gives W unless P is W's patient, and W' then. The
    memo holds W, and W' once a call has needed it: from W's own product when
    the first call needs both, else from one product and one pick of its own.
    `encode` remembers each vector by text; the index rows, and the reply
    batches of `fidelity`, go through `encoder.encode_many` and are not
    remembered. In both memos errors are raised on every call and never
    remembered; each is filled on first use, lives and dies with the
    retriever (and so with its `Components`), and is emptied whenever it
    reaches MEMO_CAP texts. A text's order is never changed once built, and
    its slot is filled by one assignment, so threads that race to build it
    build equal lists.

    Retrieval audit: every retrieved snippet's patient id is appended to
    `audit_log`, which validation harnesses may inspect for leakage.
    """

    # query and rows are unit length to within an ulp, so their product is within
    # a few ulps of `cosine`; the margin is far above that gap
    SHORTLIST_MARGIN = 1e-9

    def __init__(self, bank: SnippetBank, encoder):
        if len(bank) == 0:
            raise EmptyCandidateSetError("bank is empty")
        self.bank = bank
        self.encoder = encoder
        text_index: dict[str, int] = {}
        self._row_text = np.fromiter(
            (text_index.setdefault(s.doctor_curr, len(text_index)) for s in bank.snippets),
            dtype=np.intp,
            count=len(bank),
        )
        self._matrix = encoder.encode_many(list(text_index))
        self._orders: list[list[Snippet] | None] = [None] * len(text_index)
        self._memo: dict[str, tuple[tuple[Snippet, float], ...]] = {}
        self._vectors: dict[str, np.ndarray] = {}
        self.audit_log: list[str] = []

    def encode(self, text: str) -> np.ndarray:
        """`encoder.encode(text)`, remembered by text."""
        vec = self._vectors.get(text)
        if vec is None:
            vec = self.encoder.encode(text)
            if len(self._vectors) >= MEMO_CAP:
                self._vectors.clear()  # cannot raise while other threads read or write the dict
            self._vectors[text] = vec
        return vec

    def _check_dim(self, v: np.ndarray) -> None:
        if v.shape != self._matrix.shape[1:]:
            raise DimensionMismatchError(f"dim mismatch: {v.shape} vs index {self._matrix.shape[1:]}")

    def _scores(self, queries: Sequence[np.ndarray], texts: np.ndarray | slice = slice(None)) -> np.ndarray:
        """Each query's cosine to each of `texts` (default every text), to within a few ulps.

        One (queries, texts) product; einsum runs on this thread: BLAS splits a
        large product across its own threads, which stalled for milliseconds at
        a time on a 2-vCPU host.
        """
        for q in queries:
            self._check_dim(q)
        return np.einsum("kj,ij->ki", np.array(queries), self._matrix[texts])

    def _exact(self, q: np.ndarray, texts: list[int]) -> dict[int, float]:
        """The scalar `cosine` of `q` to each distinct text of a shortlist."""
        return {t: cosine(q, self._matrix[t]) for t in set(texts)}

    def _offer(self, t: int, exclude_patient: str | None) -> Snippet | None:
        """Text `t`'s first snippet by (`_tie_key`, row) outside the excluded patient's, or None if it has none."""
        order = self._orders[t]
        if order is None:
            # rows in row order and a stable sort, so of equal keys the lowest row comes first
            rows = np.flatnonzero(self._row_text == t).tolist()
            order = self._orders[t] = sorted(map(self.bank.snippets.__getitem__, rows), key=_tie_key)
        if order[0].patient_id != exclude_patient:
            return order[0]
        end = bisect.bisect_right(order, exclude_patient, key=_patient)  # past the excluded run at the front
        return order[end] if end < len(order) else None

    def _best(
        self, q: np.ndarray, scores: np.ndarray, exclude_patient: str | None = None
    ) -> tuple[Snippet, float] | None:
        """The best snippet outside the excluded patient's, from `q`'s text scores, or None if there is none.

        A shortlisted text with no snippet of another patient is set to -inf in
        `scores` and the shortlist taken again, so the margin is measured from
        the best eligible text.
        """
        while True:
            top = scores.max()
            if top == -np.inf:
                return None
            shortlist = np.flatnonzero(scores >= top - self.SHORTLIST_MARGIN).tolist()
            offers = {t: self._offer(t, exclude_patient) for t in shortlist}
            ineligible = [t for t, offer in offers.items() if offer is None]
            if not ineligible:
                break
            scores[ineligible] = -np.inf
        exact = self._exact(q, shortlist)
        score = max(exact.values())
        best = [(offers[t], t) for t in shortlist if exact[t] == score]
        offer, t = best[0] if len(best) == 1 else min(best, key=lambda c: _tie_key(c[0]))
        return offer, exact[t]  # the text's own score: 0.0 and -0.0 tie

    def _winners(
        self, query: str, exclude_patient: str, known: tuple[tuple[Snippet, float], ...] = ()
    ) -> tuple[tuple[Snippet, float], ...]:
        """W, and W' too if W belongs to the excluded patient, from one encoding and one product.

        `known` is the memo's entry so far: given W, only W' is picked.
        """
        q = self.encode(query)
        scores = self._scores([q])[0]
        winners = known or (self._best(q, scores),)
        if winners[0][0].patient_id == exclude_patient:
            runner_up = self._best(q, scores, exclude_patient)
            if runner_up is None:
                raise EmptyCandidateSetError(
                    f"every snippet belongs to excluded patient {exclude_patient!r}"
                )
            winners += (runner_up,)
        return winners

    def retrieve(self, query: str, exclude_patient: str) -> tuple[Snippet, float]:
        winners = self._memo.get(query, ())
        if not winners or (winners[0][0].patient_id == exclude_patient and len(winners) == 1):
            winners = self._winners(query, exclude_patient, winners)
            if len(self._memo) >= MEMO_CAP:
                self._memo.clear()  # cannot raise while other threads read or write the dict
            self._memo[query] = winners
        snippet, score = winners[0] if winners[0][0].patient_id != exclude_patient else winners[1]
        self.audit_log.append(snippet.patient_id)
        return snippet, score

    def nearest(self, rows: Sequence[int], queries: Sequence[np.ndarray]) -> list[int]:
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
