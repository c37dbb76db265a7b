"""Wire clients for generation and embedding services.

This is the only module that opens network connections. The wire protocol is
the common chat-completions HTTP JSON format (POST /v1/chat/completions and
POST /v1/embeddings); endpoint and model names are fully configurable and no
vendor is assumed. A completion is one prompt string, posted as the one user
message at the configured model, the caller's temperature and `MAX_TOKENS`.
`HttpBackend` sends every request through one transport,
`transport(path, body) -> dict`: the live `HttpTransport`, or a
`ReplayTransport` serving the wire replies of a JSON-lines replay log, either
of them wrapped by a `RecordingTransport` that writes such a log. A replayed
reply is parsed and checked exactly as a live one.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path

from .errors import BackendError, InputError, numbered_lines, parse_json

logger = logging.getLogger(__name__)

API_KEY_ENV = "ELICIT_API_KEY"
DEFAULT_TIMEOUT_S = 60.0
MAX_RETRIES = 2
BACKOFF_BASE_S = 0.5
RETRYABLE_STATUS = frozenset({408, 429})  # plus every 5xx
MAX_TOKENS = 512


class AuthError(BackendError):
    """Missing or rejected credentials; never retried."""


class TransportError(BackendError):
    """Network-level failure or retryable server error."""


class MalformedResponseError(BackendError):
    pass


class ScriptExhaustedError(BackendError):
    """A replay log, or a test's scripted backend, ran out of replies."""


@dataclass(frozen=True)
class BackendConfig:
    endpoint: str = "http://localhost:8000"
    model: str = ""
    embed_model: str = ""
    timeout_s: float = DEFAULT_TIMEOUT_S

    def __post_init__(self):
        try:
            url = urllib.parse.urlsplit(self.endpoint)
            url.port  # a port that is not a number in 0..65535 raises ValueError
            host = urllib.parse.unquote(url.netloc)  # the host urllib.request hands http.client
            # http.client refuses \x00-\x20 and \x7f in a URL or a host, and reads "user:password@" as a bad port
            is_url = (url.scheme in ("http", "https") and bool(url.hostname) and "@" not in host
                      and not any(c <= " " or c == "\x7f" for c in self.endpoint + host))
        except ValueError:  # also an unclosed IPv6 bracket
            is_url = False
        if not is_url:
            raise InputError(f"endpoint must be an http(s) URL with a host, got {self.endpoint!r}")
        if not 0.0 < self.timeout_s < float("inf"):  # also false for nan
            raise InputError(f"timeout_s must be finite and > 0, got {self.timeout_s}")


class HttpTransport:
    """The live transport: posts `body` as JSON to the configured endpoint and returns the parsed reply."""

    def __init__(self, config: BackendConfig, api_key: str | None = None):
        self.config = config
        self._key = api_key if api_key is not None else os.environ.get(API_KEY_ENV)

    def __call__(self, path: str, body: dict) -> dict:
        # imported here, where a connection is opened: urllib.request loads http.client and ssl
        import http.client
        import urllib.error
        import urllib.request

        if not self._key:
            raise AuthError(f"no API key: set {API_KEY_ENV}")
        req = urllib.request.Request(
            self.config.endpoint.rstrip("/") + path,
            data=json.dumps(body).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {self._key}",
            },
            method="POST",
        )
        try:
            with urllib.request.urlopen(req, timeout=self.config.timeout_s) as resp:
                raw = resp.read()
        except urllib.error.HTTPError as e:
            if e.code in (401, 403):
                raise AuthError(f"auth rejected ({e.code})") from e
            if e.code in RETRYABLE_STATUS or e.code >= 500:
                raise TransportError(f"HTTP {e.code}") from e
            raise BackendError(f"request rejected: HTTP {e.code}") from e
        except (OSError, http.client.HTTPException) as e:  # OSError holds URLError and TimeoutError
            raise TransportError(str(e)) from e
        try:
            return parse_json(raw.decode("utf-8"))
        except ValueError as e:  # also a UnicodeDecodeError
            raise MalformedResponseError(f"reply is not UTF-8 JSON: {e}") from e


def _fingerprint(path: str, body: dict) -> str:
    """The replay-log key of one posted request: its path and its body."""
    blob = json.dumps({"path": path, "body": body}, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class RecordingTransport:
    """Wraps a transport and appends a {fingerprint, request, response} line for each reply it returns.

    `request` is the posted body and `response` the wire reply, before any parsing.
    """

    def __init__(self, inner, log_path: str | Path):
        self._inner = inner
        self._log_path = Path(log_path)
        self._lock = threading.Lock()

    def __call__(self, path: str, body: dict) -> dict:
        reply = self._inner(path, body)
        entry = {"fingerprint": _fingerprint(path, body), "request": body, "response": reply}
        line = json.dumps(entry, sort_keys=True, ensure_ascii=False) + "\n"
        with self._lock, open(self._log_path, "a", encoding="utf-8") as fh:
            fh.write(line)
        return reply


class ReplayTransport:
    """Serves the wire replies of a replay log written by `RecordingTransport`.

    A request that was recorded n times is answered with its n recorded
    replies in recorded order, one per call; call n + 1 is an error.
    """

    def __init__(self, log_path: str | Path):
        self._responses: dict[str, list] = {}
        for line_no, line in numbered_lines(log_path):
            try:
                entry = parse_json(line)
            except ValueError as e:
                raise InputError(f"{log_path}: line {line_no}: invalid JSON ({e})") from None
            if not isinstance(entry, dict) or type(entry.get("fingerprint")) is not str or "response" not in entry:
                raise InputError(f"{log_path}: line {line_no}: expected a string fingerprint and a response")
            self._responses.setdefault(entry["fingerprint"], []).append(entry["response"])
        self._served: dict[str, int] = {}
        self._lock = threading.Lock()

    def __call__(self, path: str, body: dict) -> dict:
        fp = _fingerprint(path, body)
        with self._lock:
            occurrence = self._served.get(fp, 0)
            recorded = self._responses.get(fp, ())
            if occurrence >= len(recorded):
                raise ScriptExhaustedError(
                    f"replay log has no entry for fingerprint {fp[:12]}, occurrence {occurrence + 1}"
                )
            self._served[fp] = occurrence + 1
        return recorded[occurrence]


def _float_row(index: int, vec) -> list[float]:
    """One embedding row as floats, unscaled; it must be a non-empty list of finite JSON numbers."""
    if type(vec) is not list or not vec or not all(type(x) in (int, float) for x in vec):
        raise MalformedResponseError(f"embedding {index} is not a non-empty list of numbers")
    try:
        vec = [float(x) for x in vec]
    except OverflowError:
        raise MalformedResponseError(f"embedding {index} holds an integer beyond the float range") from None
    if not all(map(math.isfinite, vec)):
        raise MalformedResponseError(f"embedding {index} holds a non-finite value")
    return vec


class HttpBackend:
    """Chat-completions client with bounded retries.

    `transport(path, body) -> dict` posts one request and returns the wire
    reply. Every reply, whichever transport gave it, is checked here.
    """

    def __init__(self, config: BackendConfig, transport):
        self.config = config
        self._transport = transport
        self._lock = threading.Lock()
        self.retry_count = 0

    def _with_retries(self, path: str, body: dict) -> dict:
        delay = BACKOFF_BASE_S
        attempt = 0
        while True:
            try:
                return self._transport(path, body)
            except AuthError:
                raise
            except TransportError as e:
                if attempt >= MAX_RETRIES:
                    raise
                attempt += 1
                with self._lock:
                    self.retry_count += 1
                logger.warning("transport failure (%s), retry %d/%d", e, attempt, MAX_RETRIES)
                time.sleep(delay)
                delay *= 2

    def complete(self, prompt: str, temperature: float) -> str:
        """The reply text to `prompt`, sent as the one user message at the configured model."""
        body = {
            "model": self.config.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
            "max_tokens": MAX_TOKENS,
        }
        doc = self._with_retries("/v1/chat/completions", body)
        try:
            text = doc["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as e:
            raise MalformedResponseError(f"unexpected completion payload: {e}") from e
        if not isinstance(text, str):
            raise MalformedResponseError(f"completion content is not a string: {text!r}")
        return text

    def embed(self, texts: list[str]) -> list[list[float]]:
        """One checked float row per text, unscaled: `RemoteEncoder` scales it to unit length."""
        if not texts:
            return []
        if any(not t.strip() for t in texts):
            raise ValueError("embed inputs must be non-empty")
        body = {"model": self.config.embed_model or self.config.model, "input": list(texts)}
        doc = self._with_retries("/v1/embeddings", body)
        try:
            rows = sorted(doc["data"], key=lambda r: r["index"])
            indexes = [r["index"] for r in rows]
            vectors = [r["embedding"] for r in rows]
        except (KeyError, TypeError) as e:
            raise MalformedResponseError(f"unexpected embedding payload: {e}") from e
        if indexes != list(range(len(texts))) or not all(type(i) is int for i in indexes):
            raise MalformedResponseError(
                f"expected one embedding per input, indexes 0..{len(texts) - 1}; got indexes {indexes}"
            )
        return [_float_row(i, vec) for i, vec in enumerate(vectors)]
