import io
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
    HttpBackend,
    HttpTransport,
    MalformedResponseError,
    RecordingTransport,
    ReplayTransport,
    ScriptExhaustedError,
    TransportError,
)
from elicit.errors import InputError
from elicit.retrieval import RemoteEncoder

from conftest import ScriptedBackend


def completion_payload(text):
    return {"choices": [{"message": {"role": "assistant", "content": text}}]}


@pytest.mark.parametrize("bad", [{"max_concurrency": 0}, {"max_concurrency": -3}, {"timeout_s": float("nan")},
                                 {"timeout_s": float("inf")}, {"timeout_s": 0.0}, {"timeout_s": -1.0}])
def test_backend_config_rejects_a_concurrency_below_one_or_a_bad_timeout(bad):
    with pytest.raises(ValueError, match=next(iter(bad))):
        BackendConfig(**bad)


@pytest.mark.parametrize("endpoint", ["localhost:8000", "ftp://host", "http://", "http:///v1", "", "http://[::1"])
def test_backend_config_rejects_an_endpoint_that_is_not_an_http_url_with_a_host(endpoint):
    with pytest.raises(InputError, match="endpoint must be an http"):
        BackendConfig(endpoint=endpoint)


@pytest.mark.parametrize("endpoint", ["http://localhost:8000", "https://api.example.com/v1/", "http://[::1]:8000"])
def test_backend_config_accepts_an_http_or_https_url(endpoint):
    assert BackendConfig(endpoint=endpoint).endpoint == endpoint


def test_backend_config_accepts_one_worker_and_a_short_timeout():
    config = BackendConfig(max_concurrency=1, timeout_s=0.01)
    assert (config.max_concurrency, config.timeout_s) == (1, 0.01)


def recorded(transport, log, config=None):
    """A client whose replies come from `transport` and are appended to the replay log `log`."""
    return HttpBackend(config or BackendConfig(), transport=RecordingTransport(transport, log))


def replayed(log, config=None):
    """A client whose replies are served from the replay log `log`."""
    return HttpBackend(config or BackendConfig(), transport=ReplayTransport(log))


@pytest.mark.parametrize("path,changed", [
    ("/v1/embeddings", {}),
    ("/v1/chat/completions", {"model": "other-model"}),
    ("/v1/chat/completions", {"temperature": 0.7}),
    ("/v1/chat/completions", {"messages": [{"role": "user", "content": "b"}]}),
])
def test_replay_answers_only_the_path_and_body_it_recorded(tmp_path, path, changed):
    log = tmp_path / "replay.jsonl"
    recorded(lambda p, b: completion_payload("ok"), log, BackendConfig(model="m")).complete("a", 0.0)
    body = json.loads(log.read_text("utf-8"))["request"]
    assert body == {"model": "m", "messages": [{"role": "user", "content": "a"}], "temperature": 0.0, "max_tokens": 512}
    assert ReplayTransport(log)("/v1/chat/completions", body) == completion_payload("ok")
    with pytest.raises(ScriptExhaustedError):
        ReplayTransport(log)(path, {**body, **changed})


def test_scripted_queue_contract():
    backend = ScriptedBackend(script=["A", "B"])
    assert backend.complete("hi", 0.0) == "A"
    assert backend.complete("hi", 0.0) == "B"
    with pytest.raises(ScriptExhaustedError):
        backend.complete("hi", 0.0)


def test_transient_failures_then_success(monkeypatch):
    monkeypatch.setattr("elicit.backends.time.sleep", lambda s: None)
    calls = {"n": 0}

    def flaky(path, body):
        calls["n"] += 1
        if calls["n"] <= 2:
            raise TransportError("HTTP 503")
        return completion_payload("recovered")

    backend = HttpBackend(BackendConfig(), transport=flaky)
    assert backend.complete("hi", 0.0) == "recovered"
    assert backend.retry_count == 2
    assert calls["n"] == 3


def test_retries_exhausted(monkeypatch):
    monkeypatch.setattr("elicit.backends.time.sleep", lambda s: None)

    def always_down(path, body):
        raise TransportError("HTTP 500")

    backend = HttpBackend(BackendConfig(), transport=always_down)
    with pytest.raises(TransportError):
        backend.complete("hi", 0.0)
    assert backend.retry_count == 2


def test_auth_error_not_retried():
    calls = {"n": 0}

    def rejected(path, body):
        calls["n"] += 1
        raise AuthError("auth rejected (401)")

    backend = HttpBackend(BackendConfig(), transport=rejected)
    with pytest.raises(AuthError):
        backend.complete("hi", 0.0)
    assert calls["n"] == 1


def test_missing_key_is_auth_error(monkeypatch):
    monkeypatch.delenv("ELICIT_API_KEY", raising=False)
    config = BackendConfig(endpoint="http://nowhere.invalid")
    backend = HttpBackend(config, transport=HttpTransport(config))
    with pytest.raises(AuthError):
        backend.complete("hi", 0.0)


def test_malformed_completion():
    backend = HttpBackend(BackendConfig(), transport=lambda p, b: {"weird": 1})
    with pytest.raises(MalformedResponseError):
        backend.complete("hi", 0.0)


@pytest.mark.parametrize("content", [None, 5, ["text"]])
def test_completion_content_that_is_not_a_string_is_malformed(content):
    backend = HttpBackend(BackendConfig(), transport=lambda p, b: completion_payload(content))
    with pytest.raises(MalformedResponseError, match="not a string"):
        backend.complete("hi", 0.0)


def test_embed_keeps_order_and_returns_rows_unscaled():
    def transport(path, body):
        assert path == "/v1/embeddings"
        rows = [{"index": i, "embedding": [i + 1, 0.0]} for i in range(len(body["input"]))]
        return {"data": rows[::-1]}

    backend = HttpBackend(BackendConfig(), transport=transport)
    assert backend.embed(["a", "b", "c"]) == [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]
    # the remote encoder scales the row, once
    assert RemoteEncoder(backend).encode("a").tolist() == [1.0, 0.0]


@pytest.mark.parametrize("texts,indexes", [
    (["a"], []),  # no row for the one text
    (["a"], [0, 1]),  # two rows for one text
    (["a", "b"], [0, 0]),  # a repeated index
    (["a", "b"], [1, 2]),  # indexes not from 0
    (["a", "b"], [0, True]),  # an index that is not a JSON integer
    (["a"], [0.0]),
])
def test_embed_needs_one_row_per_input(texts, indexes):
    data = [{"index": i, "embedding": [1.0, 0.0]} for i in indexes]
    backend = HttpBackend(BackendConfig(), transport=lambda p, b: {"data": data})
    with pytest.raises(MalformedResponseError, match="one embedding per input"):
        backend.embed(texts)
    if len(texts) == 1:  # the remote encoder sends one text and reads the one row back
        with pytest.raises(MalformedResponseError):
            RemoteEncoder(backend).encode(texts[0])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_embed_rejects_a_non_finite_value_as_a_malformed_reply(value):
    data = [{"index": 0, "embedding": [1.0, value]}]
    backend = HttpBackend(BackendConfig(), transport=lambda p, b: {"data": data})
    with pytest.raises(MalformedResponseError, match="non-finite"):
        backend.embed(["a"])


@pytest.mark.parametrize("vector", [["1.0", "x"], ["1.0", "2"], [True, 2], [], "1.0", None, {"0": 1.0}, [[1.0]]])
def test_embed_needs_a_non_empty_list_of_json_numbers(vector):
    data = [{"index": 0, "embedding": vector}]
    backend = HttpBackend(BackendConfig(), transport=lambda p, b: {"data": data})
    with pytest.raises(MalformedResponseError, match="embedding 0 is not a non-empty list of numbers"):
        backend.embed(["a"])


@pytest.mark.parametrize("scale", [1, 1e200, 1e-200])
def test_remote_encoder_reads_json_integers_as_numbers_and_scales_any_finite_vector_to_unit_length(scale):
    data = [{"index": 0, "embedding": [3 * scale, 4.0 * scale]}]
    vector = RemoteEncoder(HttpBackend(BackendConfig(), transport=lambda p, b: {"data": data})).encode("a")
    assert vector.tolist() == pytest.approx([0.6, 0.8])


def test_embed_rejects_an_integer_beyond_the_float_range():
    data = [{"index": 0, "embedding": [10**400, 1.0]}]
    with pytest.raises(MalformedResponseError, match="beyond the float range"):
        HttpBackend(BackendConfig(), transport=lambda p, b: {"data": data}).embed(["a"])


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
        ReplayTransport(log)
    assert str(err.value).startswith(f"{log}: line 3: {problem}")


def test_embed_empty_batch():
    backend = HttpBackend(BackendConfig(), transport=lambda p, b: {})
    assert backend.embed([]) == []


def test_embed_rejects_empty_text():
    backend = HttpBackend(BackendConfig(), transport=lambda p, b: {})
    with pytest.raises(ValueError):
        backend.embed(["ok", "  "])


def test_record_then_replay_identical(tmp_path):
    script = {"one": "first reply", "two": "second reply"}

    def transport(path, body):
        return completion_payload(script[body["messages"][0]["content"]])

    log = tmp_path / "replay.jsonl"
    recorder = recorded(transport, log)
    live = [recorder.complete("one", 0.0), recorder.complete("two", 0.0)]

    replay = replayed(log)
    assert [replay.complete("one", 0.0), replay.complete("two", 0.0)] == live
    with pytest.raises(ScriptExhaustedError):
        replay.complete("three", 0.0)

    # a line holds the posted body and the wire reply
    entries = [json.loads(l) for l in log.read_text().splitlines()]
    assert [(e["request"]["messages"][0]["content"], e["response"]) for e in entries] == [
        ("one", completion_payload("first reply")), ("two", completion_payload("second reply")),
    ]


# the wire body of two fixed prompts at a configured model, as the code that
# still built a request object posted them, and the replay-log lines they
# record: each holds the posted body and the wire reply
WIRE_BODIES = [
    '{"model": "cfg-model", "messages": [{"role": "user", "content": "Caf\\u00e9?"}], "temperature": 0.25, '
    '"max_tokens": 512}',
    '{"model": "cfg-model", "messages": [{"role": "user", "content": "hi"}], "temperature": 0.7, "max_tokens": 512}',
]
RECORDED_LINES = (
    '{"fingerprint": "4fbe57e0f71e1dc65e3ed9f3622fb7616d8e2c61a359a8c94ce8e0bf4de1c46e", "request": '
    '{"max_tokens": 512, "messages": [{"content": "Café?", "role": "user"}], "model": "cfg-model", "temperature": 0.25}, '
    '"response": {"choices": [{"message": {"content": "ok", "role": "assistant"}}]}}\n'
    '{"fingerprint": "1153fa9ea2316ac190bd9990708d9765d89f250d177a2f492c429c629dc4ac15", "request": '
    '{"max_tokens": 512, "messages": [{"content": "hi", "role": "user"}], "model": "cfg-model", "temperature": 0.7}, '
    '"response": {"choices": [{"message": {"content": "ok", "role": "assistant"}}]}}\n'
)


def test_wire_body_and_recorded_line_keep_their_bytes(tmp_path):
    bodies = []

    def transport(path, body):
        bodies.append(json.dumps(body))  # the text the default transport posts
        return completion_payload("ok")

    log = tmp_path / "replay.jsonl"
    recorder = recorded(transport, log, BackendConfig(model="cfg-model"))
    recorder.complete("Café?", 0.25)
    recorder.complete("hi", 0.7)
    assert bodies == WIRE_BODIES
    assert log.read_text("utf-8") == RECORDED_LINES


def test_replay_serves_a_recurring_request_once_per_recorded_occurrence(tmp_path):
    # at temperature > 0 the live backend may answer the same request differently each time
    replies = iter(["first", "second", "other", "third"])
    log = tmp_path / "replay.jsonl"
    recorder = recorded(lambda p, b: completion_payload(next(replies)), log)
    hot, cold = ("one", 0.7), ("two", 0.7)
    live = [recorder.complete(*hot), recorder.complete(*hot), recorder.complete(*cold), recorder.complete(*hot)]
    assert live == ["first", "second", "other", "third"]

    replay = replayed(log)
    assert [replay.complete(*hot), replay.complete(*cold), replay.complete(*hot), replay.complete(*hot)] == [
        "first", "other", "second", "third",
    ]
    with pytest.raises(ScriptExhaustedError, match="occurrence 4"):
        replay.complete(*hot)
    with pytest.raises(ScriptExhaustedError):
        replay.complete(*cold)


def test_record_and_replay_lose_no_line_and_serve_each_reply_once_across_threads(tmp_path):
    n_threads, per_thread = 16, 25
    replies = iter(range(n_threads * per_thread))
    log = tmp_path / "replay.jsonl"
    config = BackendConfig(max_concurrency=n_threads)
    clients = {"live": lambda: recorded(lambda p, b: completion_payload(f"reply {next(replies)}"), log, config),
               "replayed": lambda: replayed(log, config)}  # built once the recording is done
    hot = ("one", 0.7)
    served = {"live": [], "replayed": []}

    def worker(client, key):
        for _ in range(per_thread):
            served[key].append(client.complete(*hot))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for key, build in clients.items():
            client = build()
            threads = [threading.Thread(target=worker, args=(client, key)) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert len(log.read_text("utf-8").splitlines()) == n_threads * per_thread
    assert sorted(served["replayed"]) == sorted(served["live"])
    assert len(set(served["live"])) == n_threads * per_thread
    with pytest.raises(ScriptExhaustedError):
        client.complete(*hot)


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
    recorder = recorded(_embedding_transport, log)
    live = [recorder.embed(["one"]), recorder.embed(["two", "three"])]

    replay = replayed(log)
    assert [replay.embed(["one"]), replay.embed(["two", "three"])] == live
    with pytest.raises(ScriptExhaustedError):
        replay.embed(["three", "two"])


def test_replay_of_completions_and_embeddings_from_one_log(tmp_path):
    def transport(path, body):
        if path == "/v1/embeddings":
            return _embedding_transport(path, body)
        return completion_payload("reply")

    log = tmp_path / "replay.jsonl"
    recorder = recorded(transport, log)
    vectors, text = recorder.embed(["one"]), recorder.complete("one", 0.0)
    replay = replayed(log)
    assert replay.embed(["one"]) == vectors
    assert replay.complete("one", 0.0) == text
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
    config = BackendConfig(endpoint="http://localhost:1")
    backend = HttpBackend(config, transport=HttpTransport(config, api_key="k"))
    with pytest.raises(BackendError) as err:
        backend.complete("hi", 0.0)
    assert not isinstance(err.value, TransportError)
    assert str(code) in str(err.value)
    assert len(calls) == 1
    assert backend.retry_count == 0


@pytest.mark.parametrize("code", [408, 429, 500, 503, None])
def test_http_retryable_failures_are_retried(monkeypatch, code):
    monkeypatch.setattr("elicit.backends.time.sleep", lambda s: None)
    calls = []
    monkeypatch.setattr(urllib.request, "urlopen", _urlopen_failing_with(code, calls))
    config = BackendConfig(endpoint="http://localhost:1")
    backend = HttpBackend(config, transport=HttpTransport(config, api_key="k"))
    with pytest.raises(TransportError):
        backend.embed(["text"])
    assert len(calls) == 1 + MAX_RETRIES
    assert backend.retry_count == MAX_RETRIES


def test_retry_count_is_exact_across_threads(monkeypatch):
    monkeypatch.setattr("elicit.backends.time.sleep", lambda s: None)
    calls = []
    monkeypatch.setattr(urllib.request, "urlopen", _urlopen_failing_with(503, calls))
    config = BackendConfig(endpoint="http://localhost:1", max_concurrency=16)
    backend = HttpBackend(config, transport=HttpTransport(config, api_key="k"))
    n_threads, per_thread = 16, 25

    def worker():
        for _ in range(per_thread):
            with pytest.raises(TransportError):
                backend.complete("hi", 0.0)

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


@pytest.mark.parametrize("body", [
    b"<html><body>502 Bad Gateway</body></html>",
    b'{"choices": [',
    b'{"choices": "\xff"}',
    b"[" * 5000 + b"]" * 5000,
], ids=["html", "truncated", "not-utf8", "nested-too-deeply"])
def test_a_200_reply_that_is_not_utf8_json_is_a_malformed_response(monkeypatch, body):
    calls = []

    def fake_urlopen(req, timeout=None):
        calls.append(req.full_url)
        return io.BytesIO(body)  # a status-200 reply: a context manager with read()

    monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
    config = BackendConfig(endpoint="http://localhost:1")
    backend = HttpBackend(config, transport=HttpTransport(config, api_key="k"))
    with pytest.raises(MalformedResponseError, match="reply is not UTF-8 JSON"):
        backend.complete("hi", 0.0)
    assert len(calls) == 1  # a malformed reply is not retried
    assert backend.retry_count == 0
