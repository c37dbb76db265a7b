import dataclasses
import json
import random
import re
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elicit import retrieval
from elicit.backends import BackendConfig, HttpBackend
from elicit.bank import Snippet, SnippetBank
from elicit.ontology import ALL_TRAITS
from elicit.retrieval import (
    AnchorRetriever,
    DimensionMismatchError,
    EmptyCandidateSetError,
    EmptyTextError,
    FALLBACK_DIM,
    FallbackEncoder,
    RemoteEncoder,
    cosine,
)

from conftest import CountingEncoder

ENC = FallbackEncoder()


def _snip(pid, sid, doctor, i=0):
    return Snippet(
        patient_id=pid, session_id=sid, scenario_id=3,
        doctor_curr=doctor, patient_reply=f"reply {i}", traits=frozenset(),
    )


def test_fallback_deterministic():
    a = ENC.encode("hello world")
    b = ENC.encode("hello world")
    assert np.array_equal(a, b)


def test_fallback_unit_norm():
    v = ENC.encode("the quick brown fox")
    assert abs(np.linalg.norm(v) - 1.0) < 1e-6


@settings(max_examples=50, deadline=None)
@given(st.text(min_size=1).filter(lambda s: s.strip()))
def test_fallback_unit_norm_property(text):
    v = ENC.encode(text)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-6
    assert v.shape == (FALLBACK_DIM,)


def test_fallback_empty_text():
    with pytest.raises(EmptyTextError):
        ENC.encode("")
    with pytest.raises(EmptyTextError):
        ENC.encode("   \n ")


def test_cosine_identity():
    x = ENC.encode("some words here")
    assert cosine(x, x) == pytest.approx(1.0, abs=1e-9)


def test_cosine_antipodal():
    x = ENC.encode("some words here")
    assert cosine(x, -x) == pytest.approx(-1.0, abs=1e-9)


def test_cosine_orthogonal():
    e1 = np.zeros(4); e1[0] = 1.0
    e2 = np.zeros(4); e2[1] = 1.0
    assert cosine(e1, e2) == pytest.approx(0.0, abs=1e-9)


def test_cosine_dim_mismatch():
    a = np.ones(3) / np.sqrt(3)
    b = np.ones(4) / 2.0
    with pytest.raises(DimensionMismatchError):
        cosine(a, b)


def test_exact_match_scores_one(tiny_bank):
    snippet, score = AnchorRetriever(tiny_bank, ENC).retrieve("Tell me about your job.", "P001")
    assert snippet.patient_id == "P002"
    assert snippet.doctor_curr == "Tell me about your job."
    assert score == pytest.approx(1.0, abs=1e-6)


def test_exclusion_exhausts_bank():
    bank = SnippetBank(snippets=(_snip("P001", "s", "q1"), _snip("P001", "s", "q2", 1)))
    with pytest.raises(EmptyCandidateSetError):
        AnchorRetriever(bank, ENC).retrieve("anything", "P001")


def test_never_returns_excluded(tiny_bank):
    for q in ["Tell me about school.", "weekends", "job hunting"]:
        snippet, _ = AnchorRetriever(tiny_bank, ENC).retrieve(q, "P001")
        assert snippet.patient_id != "P001"


def _reference_cosine(u, v):
    """The scalar cosine as first written, on np.linalg.norm: the oracle's scoring."""
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return min(1.0, max(-1.0, float(np.dot(u, v) / (nu * nv))))


def _reference_encode(text, dim=FALLBACK_DIM):
    vec = np.zeros(dim)
    tokens = re.findall(r"[a-z0-9]+", text.strip().lower())
    if not tokens:
        vec[0] = 1.0
    for tok in tokens:
        vec[zlib.crc32(tok.encode("utf-8")) % dim] += 1.0
    return vec / np.linalg.norm(vec)


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.lists(finite, min_size=n, max_size=n),
                                                     st.lists(finite, min_size=n, max_size=n))))
def test_cosine_equals_the_reference_bit_for_bit(pair):
    u, v = (np.array(x) for x in pair)
    assert cosine(u, v) == _reference_cosine(u, v)


@settings(max_examples=100, deadline=None)
@given(st.text(min_size=1).filter(lambda s: s.strip()))
def test_fallback_encoding_equals_the_reference_bit_for_bit(text):
    assert ENC.encode(text).tobytes() == _reference_encode(text).tobytes()


# beside ASCII letters and digits: U+212A KELVIN SIGN, whose lowercase is ASCII "k"; U+0130, whose lowercase
# is "i" and a combining dot; other non-ASCII letters, an ideographic space, a lone surrogate, NUL, a tab,
# a newline and punctuation
ORACLE_CHARS = list("aZ9 \t\n\x00.,?!-'ßéΣ") + ["\u212a", "\u0130", "\u3000", "\ud800"]
oracle_texts = st.one_of(
    st.text(st.sampled_from(ORACLE_CHARS), min_size=1, max_size=12).filter(lambda s: s.strip()),
    st.sampled_from(["?!", "...", "\u212a", "\u0130", "Tell me about school.", "\tno\x00way"]),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(oracle_texts, max_size=20))
def test_encode_many_rows_equal_the_reference_and_encode_bit_for_bit(texts):
    matrix = ENC.encode_many(texts)
    assert matrix.shape == (len(texts), FALLBACK_DIM)
    for text, row in zip(texts, matrix):
        assert row.tobytes() == _reference_encode(text).tobytes() == ENC.encode(text).tobytes()


@settings(max_examples=30, deadline=None)
@given(st.lists(oracle_texts, max_size=8), st.sampled_from(["", " ", "\t\n", "\u3000"]), st.data())
def test_a_blank_text_anywhere_in_a_batch_raises_empty_text(texts, blank, data):
    at = data.draw(st.integers(0, len(texts)))
    with pytest.raises(EmptyTextError):
        ENC.encode_many(texts[:at] + [blank] + texts[at:])


def _brute_force(bank, query, exclude, embeddings=None, enc=ENC):
    """The scalar oracle: a score for every candidate, best score then lowest key."""
    if embeddings is None:
        embeddings = [enc.encode(s.doctor_curr) for s in bank.snippets]
    q = enc.encode(query)
    best = None
    for s, e in zip(bank.snippets, embeddings):
        if s.patient_id == exclude:
            continue
        score = _reference_cosine(q, e)
        key = (-score, s.patient_id, s.session_id, s.scenario_id, s.doctor_curr, s.patient_reply)
        if best is None or key < best[0]:
            best = (key, s, score)
    if best is None:
        raise EmptyCandidateSetError("empty")
    return best[1], best[2]


def test_three_snippet_brute_force():
    bank = SnippetBank(snippets=(
        _snip("A", "s1", "how was school today"),
        _snip("B", "s1", "tell me about your weekend"),
        _snip("C", "s1", "how was school this week"),
    ))
    got, score = AnchorRetriever(bank, ENC).retrieve("how was school today", "B")
    want, want_score = _brute_force(bank, "how was school today", "B")
    assert got == want
    assert score == want_score


WORDS = ["school", "work", "lake", "picture", "friends", "lonely", "story", "cartoon"]


def _random_bank(rng: random.Random) -> SnippetBank:
    n = rng.randint(2, 10)
    snippets = []
    for i in range(n):
        pid = f"P{rng.randint(1, 4)}"
        doctor = " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 6)))
        snippets.append(_snip(pid, f"s{rng.randint(1, 3)}", doctor, i))
    return SnippetBank(snippets=tuple(snippets))


def test_fuzzed_oracle_equivalence_and_exclusion():
    rng = random.Random(2024)
    checked = 0
    for _ in range(300):
        bank = _random_bank(rng)
        exclude = rng.choice([s.patient_id for s in bank.snippets])
        query = " ".join(rng.choice(WORDS) for _ in range(rng.randint(1, 5)))
        if all(s.patient_id == exclude for s in bank.snippets):
            with pytest.raises(EmptyCandidateSetError):
                AnchorRetriever(bank, ENC).retrieve(query, exclude)
            continue
        got, score = AnchorRetriever(bank, ENC).retrieve(query, exclude)
        want, want_score = _brute_force(bank, query, exclude)
        assert got == want
        assert score == want_score
        assert got.patient_id != exclude
        checked += 1
    assert checked > 200


def test_permutation_invariance():
    rng = random.Random(77)
    for _ in range(50):
        bank = _random_bank(rng)
        query = " ".join(rng.choice(WORDS) for _ in range(3))
        exclude = "P9"  # nobody: all candidates stay
        base, base_score = AnchorRetriever(bank, ENC).retrieve(query, exclude)
        order = list(bank.snippets)
        rng.shuffle(order)
        permuted = SnippetBank(snippets=tuple(order))
        got, got_score = AnchorRetriever(permuted, ENC).retrieve(query, exclude)
        assert got == base
        assert got_score == base_score


def test_retriever_reuses_precomputed_embeddings(tiny_bank):
    retriever = AnchorRetriever(tiny_bank, ENC)
    a = retriever.retrieve("Tell me about school.", "P003")
    b = retriever.retrieve("Tell me about school.", "P003")
    assert a == b
    assert retriever.audit_log == [a[0].patient_id] * 2


def test_remote_encoder_normalises():
    enc = RemoteEncoder(_TableClient({"a": [3.0, 4.0], "subnormal": [5e-324, 5e-324]}))
    assert np.allclose(enc.encode("a"), [0.6, 0.8])
    # a norm of one bit must not scale the row to [1.0, 1.0]
    assert np.allclose(enc.encode("subnormal"), [0.5 ** 0.5] * 2)
    with pytest.raises(EmptyTextError):
        enc.encode("  ")


def _variant(rng: random.Random, words: list[str]) -> str:
    """The same text, or one whose token bag is the same or one token away."""
    kind = rng.randrange(5)
    if kind == 1:  # reordered: an identical vector under another string
        words = rng.sample(words, len(words))
    elif kind == 2:  # case and punctuation: identical tokens
        return " ".join(words).capitalize() + "?"
    elif kind == 3:  # one token repeated
        words = words + [rng.choice(words)]
    elif kind == 4:  # one token added
        words = words + [rng.choice(WORDS)]
    return " ".join(words)


@settings(max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(2, 300), n_texts=st.integers(1, 15))
def test_shared_index_matches_scalar_oracle_bit_for_bit(rng, n, n_texts):
    pool = [[rng.choice(WORDS) for _ in range(rng.randint(1, 6))] for _ in range(n_texts)]
    patients = [f"P{k}" for k in range(1, rng.randint(1, 6) + 1)]
    bank = SnippetBank(snippets=tuple(
        _snip(rng.choice(patients), f"s{rng.randint(1, 2)}", _variant(rng, rng.choice(pool)), i)
        for i in range(n)
    ))
    embeddings = [ENC.encode(s.doctor_curr) for s in bank.snippets]
    retriever = AnchorRetriever(bank, ENC)
    for _ in range(25):
        query = _variant(rng, rng.choice(pool)) if rng.random() < 0.7 else rng.choice(WORDS)
        exclude = rng.choice(patients + ["P9"])  # P9 excludes nothing
        if all(s.patient_id == exclude for s in bank.snippets):
            with pytest.raises(EmptyCandidateSetError):
                retriever.retrieve(query, exclude)
            continue
        got, score = retriever.retrieve(query, exclude)
        want, want_score = _brute_force(bank, query, exclude, embeddings)
        assert got == want
        assert score == want_score


def test_index_encodes_each_distinct_doctor_text_once():
    rng = random.Random(3)
    pool = ["how was school", "tell me about work", "how was school?", "what do you do at the lake"]
    bank = SnippetBank(snippets=tuple(
        _snip(f"P{rng.randint(1, 5)}", "s", rng.choice(pool), i) for i in range(60)
    ))
    distinct = {s.doctor_curr for s in bank.snippets}
    enc = CountingEncoder()
    retriever = AnchorRetriever(bank, enc)
    assert sorted(enc.texts) == sorted(distinct)
    assert retriever._matrix.shape == (len(distinct), FALLBACK_DIM)


def test_a_text_shared_across_patients_goes_to_the_lowest_tie_key_outside_the_excluded_one():
    # every row shares one of two texts with other patients, in an order where row order and
    # tie-key order disagree, so the excluded patient's rows drop out but its texts stay
    rng = random.Random(8)
    rows = [(pid, sid, text) for pid in ("P1", "P2", "P3", "P4") for sid in ("s1", "s2")
            for text in ("how was school today", "tell me about your weekend")]
    rng.shuffle(rows)
    bank = SnippetBank(snippets=tuple(_snip(pid, sid, text, i) for i, (pid, sid, text) in enumerate(rows)))
    embeddings = [ENC.encode(s.doctor_curr) for s in bank.snippets]
    retriever = AnchorRetriever(bank, ENC)
    assert retriever._matrix.shape[0] == 2
    for query in ("how was school today", "your weekend at school", "lake"):
        for exclude in ("P1", "P2", "P3", "P4", "P9"):
            got, score = retriever.retrieve(query, exclude)
            want, want_score = _brute_force(bank, query, exclude, embeddings)
            assert got == want
            assert score == want_score
            assert got.patient_id == ("P2" if exclude == "P1" else "P1")


@settings(max_examples=60, deadline=None)
@given(rng=st.randoms(use_true_random=False), cap=st.sampled_from([2, 3, retrieval.MEMO_CAP]))
def test_memoised_retrieve_answers_as_a_fresh_retriever_and_the_oracle(rng, cap):
    # P1 and P2 share a text, so a query of that text has a best text held by two patients and
    # excluding the global winner's patient hands the anchor to another patient with the same score
    texts = ["how was school today", "tell me about your weekend", "the lake picture", "friends story"]
    rows = [("P1", texts[0]), ("P2", texts[0])]
    rows += [(f"P{rng.randint(1, 4)}", rng.choice(texts)) for _ in range(rng.randint(0, 8))]
    bank = SnippetBank(snippets=tuple(_snip(pid, f"s{i % 2}", text, i) for i, (pid, text) in enumerate(rows)))
    embeddings = [ENC.encode(s.doctor_curr) for s in bank.snippets]
    queries = texts + ["school lake", "weekend friends cartoon", "lonely"]
    retriever = AnchorRetriever(bank, ENC)
    with mock.patch.object(retrieval, "MEMO_CAP", cap):
        for _ in range(30):
            query = rng.choice(queries)
            winner, _ = _brute_force(bank, query, None, embeddings)
            exclude = rng.choice([winner.patient_id, winner.patient_id, rng.choice(bank.patient_ids()), "P9"])
            got = retriever.retrieve(query, exclude)
            assert got == AnchorRetriever(bank, ENC).retrieve(query, exclude)
            assert got == _brute_force(bank, query, exclude, embeddings)
            assert len(retriever._memo) <= cap
    assert len(retriever.audit_log) == 30  # hits are audited too


def test_memoised_retrieve_raises_on_every_call_that_excludes_the_only_patient():
    bank = SnippetBank(snippets=(_snip("A", "s1", "how was school today"), _snip("A", "s2", "the lake")))
    enc = CountingEncoder()
    retriever = AnchorRetriever(bank, enc)
    for _ in range(3):
        with pytest.raises(EmptyCandidateSetError):
            retriever.retrieve("how was school today", "A")
        assert retriever.retrieve("how was school today", "B") == (bank.snippets[0], 1.0)
    # the winner and the query's vector are remembered, the error never: each excluding call raises
    assert enc.texts[2:] == ["how was school today"]
    assert retriever.audit_log == ["A"] * 3


SHARED_TEXTS = ["how was school today", "tell me about your weekend", "the lake picture", "school friends story"]


@settings(max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False), n=st.integers(1, 300), n_texts=st.integers(1, 4))
def test_texts_shared_by_many_rows_pick_the_oracles_row(rng, n, n_texts):
    # a few texts over up to 300 rows of many patients, sessions and scenarios, with rows that repeat
    # another's tie key (same fields, other traits) and a patient that owns every row of the first text
    texts = rng.sample(SHARED_TEXTS, n_texts)
    patients = [f"P{k:02d}" for k in range(rng.randint(1, 40))]
    owner = rng.choice(patients)
    rows: list[Snippet] = []
    for _ in range(n):
        if rows and rng.random() < 0.2:
            twin = rng.choice(rows)
            rows.append(dataclasses.replace(twin, traits=frozenset(rng.sample(ALL_TRAITS, rng.randint(0, 3)))))
            continue
        text = rng.choice(texts)
        rows.append(Snippet(
            patient_id=owner if text == texts[0] else rng.choice(patients), session_id=f"s{rng.randint(1, 3)}",
            scenario_id=rng.randint(1, 4), doctor_curr=text, patient_reply=f"reply {rng.randint(0, 5)}",
            traits=frozenset(),
        ))
    bank = SnippetBank(snippets=tuple(rows))
    embeddings = [ENC.encode(s.doctor_curr) for s in bank.snippets]
    retriever = AnchorRetriever(bank, ENC)
    queries = texts + ["school", "weekend lake", "friends", "cartoon"]
    for _ in range(25):
        query = rng.choice(queries)
        exclude = rng.choice([owner, owner, rng.choice(patients), "P99"])  # P99 excludes nothing
        fresh = AnchorRetriever(bank, ENC)
        if all(s.patient_id == exclude for s in bank.snippets):
            for r in (retriever, fresh):
                with pytest.raises(EmptyCandidateSetError):
                    r.retrieve(query, exclude)
            continue
        want = _brute_force(bank, query, exclude, embeddings)
        assert retriever.retrieve(query, exclude) == want
        assert fresh.retrieve(query, exclude) == want


def test_a_memo_miss_on_a_text_of_1000_rows_takes_no_tie_key_per_row():
    # the text's (tie key, row) order is built on its first shortlisting; after that a miss takes the
    # order's first row, or for W' the first row past the excluded patient's run, with no key per row
    bank = SnippetBank(snippets=tuple(
        _snip(f"P{i % 100:03d}", f"s{i % 7}", "how was school today", i) for i in range(1000)
    ))
    retriever = AnchorRetriever(bank, ENC)
    calls = []
    for query in ("how was school", "school today"):  # two questions, so two memo misses
        with mock.patch.object(retrieval, "_tie_key", side_effect=retrieval._tie_key) as tie_key:
            got = retriever.retrieve(query, "P000")  # P000 holds W, so W' is taken too
        calls.append(tie_key.call_count)
        assert got == _brute_force(bank, query, "P000")
    assert calls == [1000, 0]


def test_a_memo_entry_holding_w_picks_only_w_prime_when_w_is_excluded():
    # the entry already holds W, so a call that excludes W's patient runs one product and one pick, for W'
    bank = SnippetBank(snippets=(
        _snip("P1", "s1", "how was school today"), _snip("P2", "s1", "how was school today", 1),
        _snip("P3", "s1", "the lake picture", 2),
    ))
    retriever = AnchorRetriever(bank, ENC)
    assert retriever.retrieve("school today", "P3")[0].patient_id == "P1"
    with mock.patch.object(AnchorRetriever, "_best", autospec=True, side_effect=AnchorRetriever._best) as best, \
            mock.patch.object(AnchorRetriever, "_scores", autospec=True, side_effect=AnchorRetriever._scores) as scores:
        got = retriever.retrieve("school today", "P1")
    assert (best.call_count, scores.call_count) == (1, 1)
    assert got == _brute_force(bank, "school today", "P1") == AnchorRetriever(bank, ENC).retrieve("school today", "P1")
    assert got[0].patient_id == "P2"
    assert len(retriever._memo["school today"]) == 2


class _TableClient:
    """Embeddings client serving fixed vectors by text, zero vectors included."""

    def __init__(self, table):
        self.table = table

    def embed(self, texts):
        return [self.table[t] for t in texts]


def test_a_remote_index_build_posts_one_request_per_distinct_doctor_text_as_encode_does():
    def recording(posted):
        def transport(path, body):
            posted.append((path, json.dumps(body).encode("utf-8")))
            return {"data": [{"index": 0, "embedding": ENC.encode(body["input"][0]).tolist()}]}

        return HttpBackend(BackendConfig(), transport=transport)

    texts = ["how was school", "the lake", "how was school", "Tell me a story", "the lake"]
    bank = SnippetBank(snippets=tuple(_snip(f"P{i % 3}", "s", text, i) for i, text in enumerate(texts)))
    built, single = [], []
    retriever = AnchorRetriever(bank, RemoteEncoder(recording(built)))
    one_at_a_time = RemoteEncoder(recording(single))
    rows = [one_at_a_time.encode(text) for text in dict.fromkeys(texts)]
    assert built == single  # the same bytes, in first-appearance order
    assert [json.loads(body)["input"] for _, body in built] == [["how was school"], ["the lake"], ["Tell me a story"]]
    assert retriever._matrix.tobytes() == np.array(rows).tobytes()


def test_query_of_another_dim_raises_dimension_mismatch():
    enc = RemoteEncoder(_TableClient({"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0, 0.0], "q": [1.0, 1.0]}))
    bank = SnippetBank(snippets=(_snip("A", "s", "a"), _snip("B", "s", "b", 1)))
    retriever = AnchorRetriever(bank, enc)
    with pytest.raises(DimensionMismatchError):
        retriever.retrieve("q", "A")


def test_index_rows_of_different_dims_raise_dimension_mismatch():
    enc = RemoteEncoder(_TableClient({"a": [1.0, 0.0, 0.0], "b": [0.0, 1.0]}))
    bank = SnippetBank(snippets=(_snip("A", "s", "a"), _snip("B", "s", "b", 1)))
    with pytest.raises(DimensionMismatchError):
        AnchorRetriever(bank, enc)


def test_zero_norm_rows_and_queries_score_exactly_zero():
    enc = RemoteEncoder(_TableClient({
        "zero": [0.0, 0.0, 0.0], "away": [-1.0, 0.0, 0.0], "q": [1.0, 0.0, 0.0], "blank": [0.0, 0.0, 0.0],
    }))
    bank = SnippetBank(snippets=(_snip("A", "s", "zero"), _snip("B", "s", "away", 1)))
    retriever = AnchorRetriever(bank, enc)
    snippet, score = retriever.retrieve("q", "C")
    assert snippet.doctor_curr == "zero"
    assert score == 0.0 and score == _reference_cosine(enc.encode("q"), enc.encode("zero"))
    # a zero query scores every row 0.0, so the tie key decides
    snippet, score = retriever.retrieve("blank", "C")
    assert (snippet.patient_id, score) == ("A", 0.0)


def test_nearest_checks_dims_and_scores_zero_vectors_as_cosine_does():
    enc = RemoteEncoder(_TableClient({
        "away": [-1.0, 0.0, 0.0], "zero": [0.0, 0.0, 0.0], "q": [1.0, 0.0, 0.0], "blank": [0.0, 0.0, 0.0],
        "short": [1.0, 0.0],
    }))
    bank = SnippetBank(snippets=(_snip("A", "s", "away"), _snip("B", "s", "zero", 1), _snip("A", "s", "zero", 2)))
    retriever = AnchorRetriever(bank, enc)
    rows = bank.by_patient["A"]
    # a zero query scores every row 0.0, so the earliest row wins
    assert retriever.nearest(rows, [enc.encode("q"), enc.encode("blank")]) == [1, 0]
    with pytest.raises(DimensionMismatchError):
        retriever.nearest(rows, [enc.encode("short")])


def test_index_build_allocates_no_full_size_temporary():
    rng = random.Random(5)
    n = 2000
    bank = SnippetBank(snippets=tuple(
        _snip(f"P{i // 10}", "s", " ".join(rng.choice(WORDS) for _ in range(5)), i) for i in range(n)
    ))
    matrix_bytes = n * FALLBACK_DIM * 8
    tracemalloc.start()
    try:
        retriever = AnchorRetriever(bank, ENC)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retriever.retrieve("school work", "P0")[0].patient_id != "P0"
    assert peak <= 1.5 * matrix_bytes


def _remote_row(rng: random.Random, dim: int, dense: list[list[float]]) -> list[float]:
    """A dense random row, a zero row, one scaled by 1e+-150, or a scaled copy of a dense row, which ties with it.

    A copy scaled by 1e-320 is subnormal and keeps only a few bits, yet must still be scaled to unit length.
    """
    kind = rng.randrange(5)
    if kind == 0:
        return [0.0] * dim
    if kind == 1 and dense:
        scale = rng.choice([0.5, 3.0, 1e150, 1e-150, 1e-320])
        return [x * scale for x in rng.choice(dense)]
    row = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
    if kind == 2:
        scale = rng.choice([1e150, 1e-150])
        return [x * scale for x in row]
    dense.append(row)
    return row


@settings(max_examples=40, deadline=None)
@given(rng=st.randoms(use_true_random=False), dim=st.integers(2, 64), n=st.integers(2, 40),
       n_texts=st.integers(1, 12))
def test_dense_remote_vectors_match_the_scalar_oracle_exactly(rng, dim, n, n_texts):
    dense: list[list[float]] = []
    table = {f"text {k}": _remote_row(rng, dim, dense) for k in range(n_texts)}
    texts = list(table)
    table.update({f"query {k}": _remote_row(rng, dim, dense) for k in range(10)})
    queries = list(table)  # the index's own texts, and others
    enc = RemoteEncoder(_TableClient(table))
    patients = [f"P{k}" for k in range(1, rng.randint(1, 4) + 1)]
    bank = SnippetBank(snippets=tuple(
        _snip(rng.choice(patients), f"s{rng.randint(1, 2)}", rng.choice(texts), i) for i in range(n)
    ))
    embeddings = [enc.encode(s.doctor_curr) for s in bank.snippets]
    retriever = AnchorRetriever(bank, enc)
    for _ in range(25):
        query = rng.choice(queries)
        exclude = rng.choice(patients + ["P9"])  # P9 excludes nothing
        if all(s.patient_id == exclude for s in bank.snippets):
            with pytest.raises(EmptyCandidateSetError):
                retriever.retrieve(query, exclude)
        else:
            got, score = retriever.retrieve(query, exclude)
            want, want_score = _brute_force(bank, query, exclude, embeddings, enc)
            assert got == want
            assert score == want_score
        rows = bank.by_patient[rng.choice(list(bank.by_patient))]
        batch = [enc.encode(q) for q in rng.sample(queries, rng.randint(1, 4))]
        want_picks = [
            max(range(len(rows)), key=lambda i: (_reference_cosine(q, embeddings[rows[i]]), -i)) for q in batch
        ]
        assert retriever.nearest(rows, batch) == want_picks
