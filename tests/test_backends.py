import json
import sys
import threading
import urllib.error
import urllib.request

import pytest

from elicit.backends import (
    MAX_RETRIES,
    AuthError,
    BackendConfig,
    BackendError,
    GenerationRequest,
    HttpBackend,
    MalformedResponseError,
    Message,
    RecordingBackend,
    ReplayBackend,
    ScriptedBackend,
    ScriptExhaustedError,
    TransportError,
)
from elicit.errors import InputError
from elicit.retrieval import RemoteEncoder


def req(text="hi", temperature=0.0):
    return GenerationRequest(messages=(Message("user", text),), temperature=temperature)


def completion_payload(text):
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


def test_request_requires_messages():
    with pytest.raises(ValueError):
        GenerationRequest(messages=(), temperature=0.0)


def test_request_rejects_negative_temperature():
    with pytest.raises(ValueError):
        req(temperature=-0.1)


@pytest.mark.parametrize("bad", [{"max_concurrency": 0}, {"max_concurrency": -3}, {"timeout_s": float("nan")},
                                 {"timeout_s": float("inf")}, {"timeout_s": 0.0}, {"timeout_s": -1.0}])
def test_backend_config_rejects_a_concurrency_below_one_or_a_bad_timeout(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        BackendConfig(**bad)


def test_backend_config_accepts_one_worker_and_a_short_timeout():
    config = BackendConfig(max_concurrency=1, timeout_s=0.01)
    assert (config.max_concurrency, config.timeout_s) == (1, 0.01)


def test_fingerprint_stable_and_sensitive():
    assert req("a").fingerprint() == req("a").fingerprint()
    assert req("a").fingerprint() != req("b").fingerprint()
    assert req("a", 0.0).fingerprint() != req("a", 0.7).fingerprint()


def test_scripted_queue_contract():
    backend = ScriptedBackend(script=["A", "B"])
    assert backend.complete(req()) == "A"
    assert backend.complete(req()) == "B"
    with pytest.raises(ScriptExhaustedError):
        backend.complete(req())


def test_transient_failures_then_success(monkeypatch):
    monkeypatch.setattr("elicit.backends.time.sleep", lambda s: None)
    calls = {"n": 0}

    def flaky(path, body):
        calls["n"] += 1
        if calls["n"] <= 2:
            raise TransportError("HTTP 503")
        return completion_payload("recovered")

    backend = HttpBackend(BackendConfig(), transport=flaky, api_key="k")
    assert backend.complete(req()) == "recovered"
    assert backend.retry_count == 2
    assert calls["n"] == 3


def test_retries_exhausted(monkeypatch):
    monkeypatch.setattr("elicit.backends.time.sleep", lambda s: None)

    def always_down(path, body):
        raise TransportError("HTTP 500")

    backend = HttpBackend(BackendConfig(), transport=always_down, api_key="k")
    with pytest.raises(TransportError):
        backend.complete(req())
    assert backend.retry_count == 2


def test_auth_error_not_retried():
    calls = {"n": 0}

    def rejected(path, body):
        calls["n"] += 1
        raise AuthError("auth rejected (401)")

    backend = HttpBackend(BackendConfig(), transport=rejected, api_key="bad")
    with pytest.raises(AuthError):
        backend.complete(req())
    assert calls["n"] == 1


def test_missing_key_is_auth_error(monkeypatch):
    monkeypatch.delenv("ELICIT_API_KEY", raising=False)
    backend = HttpBackend(BackendConfig(endpoint="http://nowhere.invalid"))
    with pytest.raises(AuthError):
        backend.complete(req())


def test_malformed_completion():
    backend = HttpBackend(BackendConfig(), transport=lambda p, b: {"weird": 1}, api_key="k")
    with pytest.raises(MalformedResponseError):
        backend.complete(req())


@pytest.mark.parametrize("content", [None, 5, ["text"]])
def test_completion_content_that_is_not_a_string_is_malformed(content):
    backend = HttpBackend(BackendConfig(), transport=lambda p, b: completion_payload(content), api_key="k")
    with pytest.raises(MalformedResponseError, match="not a string"):
        backend.complete(req())


def test_embed_order_preserved_and_normalised():
    def transport(path, body):
        assert path == "/v1/embeddings"
        return {
            "data": [
                {"index": i, "embedding": [float(i + 1), 0.0]}
                for i in range(len(body["input"]))
            ]
        }

    backend = HttpBackend(BackendConfig(), transport=transport, api_key="k")
    vectors = backend.embed(["a", "b", "c"])
    assert len(vectors) == 3
    for v in vectors:
        assert sum(x * x for x in v) == pytest.approx(1.0)


@pytest.mark.parametrize("texts,indexes", [
    (["a"], []),  # no row for the one text
    (["a"], [0, 1]),  # two rows for one text
    (["a", "b"], [0, 0]),  # a repeated index
    (["a", "b"], [1, 2]),  # indexes not from 0
])
def test_embed_needs_one_row_per_input(texts, indexes):
    data = [{"index": i, "embedding": [1.0, 0.0]} for i in indexes]
    backend = HttpBackend(BackendConfig(), transport=lambda p, b: {"data": data}, api_key="k")
    with pytest.raises(MalformedResponseError, match="one embedding per input"):
        backend.embed(texts)
    if len(texts) == 1:  # the remote encoder sends one text and reads the one row back
        with pytest.raises(MalformedResponseError):
            RemoteEncoder(backend).encode(texts[0])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_embed_rejects_a_non_finite_value_as_a_malformed_reply(value):
    data = [{"index": 0, "embedding": [1.0, value]}]
    backend = HttpBackend(BackendConfig(), transport=lambda p, b: {"data": data}, api_key="k")
    with pytest.raises(MalformedResponseError, match="non-finite"):
        backend.embed(["a"])


@pytest.mark.parametrize("line,problem", [
    ('{"response": "r"}', "expected a string fingerprint and a response"),
    ('{"fingerprint": ["f"], "response": "r"}', "expected a string fingerprint and a response"),
    ('{"fingerprint": "f"}', "expected a string fingerprint and a response"),
    ('["f", "r"]', "expected a string fingerprint and a response"),
    ("{not json", "invalid JSON"),
])
def test_replay_log_with_a_bad_line_is_an_input_error_naming_the_file_and_line(tmp_path, line, problem):
    log = tmp_path / "replay.jsonl"
    log.write_text(json.dumps({"fingerprint": "f", "response": "r"}) + "\n\n" + line + "\n", encoding="utf-8")
    with pytest.raises(InputError) as err:
        ReplayBackend(log)
    assert str(err.value).startswith(f"{log}: line 3: {problem}")


def test_embed_empty_batch():
    backend = HttpBackend(BackendConfig(), transport=lambda p, b: {}, api_key="k")
    assert backend.embed([]) == []


def test_embed_rejects_empty_text():
    backend = HttpBackend(BackendConfig(), transport=lambda p, b: {}, api_key="k")
    with pytest.raises(ValueError):
        backend.embed(["ok", "  "])


def test_record_then_replay_identical(tmp_path):
    script = {"one": "first reply", "two": "second reply"}

    def transport(path, body):
        return completion_payload(script[body["messages"][0]["content"]])

    log = tmp_path / "replay.jsonl"
    recorder = RecordingBackend(
        inner=HttpBackend(BackendConfig(), transport=transport, api_key="k"), log_path=log
    )
    live = [recorder.complete(req("one")), recorder.complete(req("two"))]

    replay = ReplayBackend(log)
    assert [replay.complete(req("one")), replay.complete(req("two"))] == live
    with pytest.raises(ScriptExhaustedError):
        replay.complete(req("three"))

    entries = [json.loads(l) for l in log.read_text().splitlines()]
    assert {e["fingerprint"] for e in entries} == {req("one").fingerprint(), req("two").fingerprint()}


# the wire body and the replay-log line for two fixed requests, recorded before
# the request's payload was built in one place
WIRE_BODIES = [
    '{"model": "cfg-model", "messages": [{"role": "system", "content": "Be brief."}, '
    '{"role": "user", "content": "Caf\\u00e9?"}], "temperature": 0.25, "max_tokens": 64}',
    '{"model": "own-model", "messages": [{"role": "user", "content": "hi"}], "temperature": 0.7, "max_tokens": 512}',
]
RECORDED_LINES = (
    '{"fingerprint": "5a372d14bf94a7a304279785d1599d39d03fc916e8e2b8749d0c1f7f0b37e2df", "request": '
    '{"max_tokens": 64, "messages": [{"content": "Be brief.", "role": "system"}, {"content": "Café?", "role": "user"}], '
    '"model": "", "temperature": 0.25}, "response": "ok"}\n'
    '{"fingerprint": "8f584f6f5a25fd8791ced9d2fe9266e442659abc551a6ecbfb265b9e55e30ae4", "request": '
    '{"max_tokens": 512, "messages": [{"content": "hi", "role": "user"}], "model": "own-model", "temperature": 0.7}, '
    '"response": "ok"}\n'
)


def test_wire_body_and_recorded_line_keep_their_bytes(tmp_path):
    bodies = []

    def transport(path, body):
        bodies.append(json.dumps(body))  # the text the default transport posts
        return completion_payload("ok")

    log = tmp_path / "replay.jsonl"
    recorder = RecordingBackend(
        inner=HttpBackend(BackendConfig(model="cfg-model"), transport=transport, api_key="k"), log_path=log
    )
    recorder.complete(GenerationRequest(
        messages=(Message("system", "Be brief."), Message("user", "Café?")), temperature=0.25, max_tokens=64
    ))
    recorder.complete(GenerationRequest(messages=(Message("user", "hi"),), temperature=0.7, model="own-model"))
    assert bodies == WIRE_BODIES
    assert log.read_text("utf-8") == RECORDED_LINES



def test_replay_serves_a_recurring_request_once_per_recorded_occurrence(tmp_path):
    # at temperature > 0 the live backend may answer the same request differently each time
    replies = iter(["first", "second", "other", "third"])
    log = tmp_path / "replay.jsonl"
    recorder = RecordingBackend(
        inner=HttpBackend(
            BackendConfig(), transport=lambda p, b: completion_payload(next(replies)), api_key="k"
        ),
        log_path=log,
    )
    hot, cold = req("one", temperature=0.7), req("two", temperature=0.7)
    live = [recorder.complete(hot), recorder.complete(hot), recorder.complete(cold), recorder.complete(hot)]
    assert live == ["first", "second", "other", "third"]

    replay = ReplayBackend(log)
    assert [replay.complete(hot), replay.complete(cold), replay.complete(hot), replay.complete(hot)] == [
        "first", "other", "second", "third",
    ]
    with pytest.raises(ScriptExhaustedError, match="occurrence 4"):
        replay.complete(hot)
    with pytest.raises(ScriptExhaustedError):
        replay.complete(cold)


def _embedding_transport(path, body):
    assert path == "/v1/embeddings"
    return {
        "data": [
            {"index": i, "embedding": [float(len(t)), 1.0 / 3.0, float(i)]}
            for i, t in enumerate(body["input"])
        ]
    }


def test_record_then_replay_embeddings_identical(tmp_path):
    log = tmp_path / "replay.jsonl"
    recorder = RecordingBackend(
        inner=HttpBackend(BackendConfig(), transport=_embedding_transport, api_key="k"), log_path=log
    )
    live = [recorder.embed(["one"]), recorder.embed(["two", "three"])]

    replay = ReplayBackend(log)
    assert [replay.embed(["one"]), replay.embed(["two", "three"])] == live
    with pytest.raises(ScriptExhaustedError):
        replay.embed(["three", "two"])


def test_replay_of_completions_and_embeddings_from_one_log(tmp_path):
    def transport(path, body):
        if path == "/v1/embeddings":
            return _embedding_transport(path, body)
        return completion_payload("reply")

    log = tmp_path / "replay.jsonl"
    recorder = RecordingBackend(
        inner=HttpBackend(BackendConfig(), transport=transport, api_key="k"), log_path=log
    )
    vectors, text = recorder.embed(["one"]), recorder.complete(req("one"))
    replay = ReplayBackend(log)
    assert replay.embed(["one"]) == vectors
    assert replay.complete(req("one")) == text
    with pytest.raises(ScriptExhaustedError):
        replay.embed(["two"])


def _urlopen_failing_with(code, calls):
    def fake_urlopen(req, timeout=None):
        calls.append(req.full_url)
        if code is None:
            raise urllib.error.URLError("connection refused")
        raise urllib.error.HTTPError(req.full_url, code, "status", {}, None)

    return fake_urlopen


@pytest.mark.parametrize("code", [400, 404, 422])
def test_http_client_error_is_not_retried(monkeypatch, code):
    monkeypatch.setattr("elicit.backends.time.sleep", lambda s: None)
    calls = []
    monkeypatch.setattr(urllib.request, "urlopen", _urlopen_failing_with(code, calls))
    backend = HttpBackend(BackendConfig(endpoint="http://localhost:1"), api_key="k")
    with pytest.raises(BackendError) as err:
        backend.complete(req())
    assert not isinstance(err.value, TransportError)
    assert str(code) in str(err.value)
    assert len(calls) == 1
    assert backend.retry_count == 0


@pytest.mark.parametrize("code", [408, 429, 500, 503, None])
def test_http_retryable_failures_are_retried(monkeypatch, code):
    monkeypatch.setattr("elicit.backends.time.sleep", lambda s: None)
    calls = []
    monkeypatch.setattr(urllib.request, "urlopen", _urlopen_failing_with(code, calls))
    backend = HttpBackend(BackendConfig(endpoint="http://localhost:1"), api_key="k")
    with pytest.raises(TransportError):
        backend.embed(["text"])
    assert len(calls) == 1 + MAX_RETRIES
    assert backend.retry_count == MAX_RETRIES


def test_retry_count_is_exact_across_threads(monkeypatch):
    monkeypatch.setattr("elicit.backends.time.sleep", lambda s: None)
    calls = []
    monkeypatch.setattr(urllib.request, "urlopen", _urlopen_failing_with(503, calls))
    backend = HttpBackend(BackendConfig(endpoint="http://localhost:1", max_concurrency=16), api_key="k")
    n_threads, per_thread = 16, 25

    def worker():
        for _ in range(per_thread):
            with pytest.raises(TransportError):
                backend.complete(req())

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == n_threads * per_thread * (1 + MAX_RETRIES)
    assert backend.retry_count == n_threads * per_thread * MAX_RETRIES
