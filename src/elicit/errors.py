"""The two error roots that decide every exit code and every abort.

- `InputError`: something the user gave is wrong (a bank, config, ontology,
  transcript, replay log, episode log, flag or setting). `elicit` prints
  `error: ...` and exits 1, as it does for an `OSError`: a path it cannot
  read or write.
- `BackendError`: a backend failed or broke its reply contract. An episode
  that meets one aborts with it as its `abort_reason`; a command that meets
  one outside an episode prints `backend error: ...` and exits 2.

Anything else is a bug and keeps its traceback. An error class in this
package descends from exactly one root, or is an internal check that valid
input never trips.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator


class InputError(ValueError):
    """Something the user gave is wrong."""


class BackendError(RuntimeError):
    """A backend failed, or its reply broke the contract twice."""


def read_text(path: str | Path) -> str:
    """The text of a file the user gave; bytes that are not UTF-8 are an InputError naming it."""
    try:
        return Path(path).read_text("utf-8")
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text ({e})") from None


# (text, index) -> (value, end): the scanner under `json.loads`, with its settings; the C one where there is one
_SCAN = json.JSONDecoder().scan_once
_WHITESPACE = json.decoder.WHITESPACE.match


def parse_json(text: str):
    """`json.loads(text)`, where bad JSON of three more kinds is a `json.JSONDecodeError` like any other.

    The value comes from one call of the decoder's scanner at index 0,
    accepted when only JSON whitespace follows it; that is `json.loads`
    without its `decode` and `raw_decode` frames. Any other text (bad JSON,
    extra data, leading whitespace, a BOM) is parsed again by `json.loads`,
    so each error keeps its wording and position.

    - JSON nested too deep to parse: `json.loads` raises `RecursionError`,
      which no boundary that catches bad JSON would catch.
    - A number with more digits than `int` converts (4,300 by default):
      `json.loads` raises a bare `ValueError`, which no such boundary
      catches either.
    - A string holding a lone surrogate: `json.loads` returns it, and every
      UTF-8 writer then fails on it. Every reader decodes its text from UTF-8
      strictly, so only a `\\u` escape can carry one, and text without one
      skips the check. The search for `\\` runs first: a one-character
      search is a memchr, and one for `\\u` is many times slower.
    """
    try:
        value, end = _SCAN(text, 0)
        if end != len(text) and _WHITESPACE(text, end).end() != len(text):
            raise ValueError("extra data")  # json.loads words it
    except (StopIteration, ValueError, RecursionError):  # StopIteration: no value starts at 0
        value = _loads(text)
    if "\\" in text and "\\u" in text and _holds_lone_surrogate(value):
        raise json.JSONDecodeError("a string holds a lone surrogate", text, 0)
    return value


def _loads(text: str):
    """`json.loads(text)`, its `RecursionError` and digit-limit `ValueError` raised as `json.JSONDecodeError`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", text, 0) from None
    except ValueError:  # the scanner's only other ValueError is int's digit limit
        raise json.JSONDecodeError("a number has too many digits to convert", text, 0) from None


def _holds_lone_surrogate(value) -> bool:
    """Whether a parsed JSON value holds a string, key or not, with a code point in U+D800..U+DFFF."""
    stack = [value]  # no recursion: the value may nest as deep as `json.loads` allows
    while stack:
        v = stack.pop()
        if isinstance(v, str):
            try:
                v.encode("utf-8")
            except UnicodeEncodeError:
                return True
        elif isinstance(v, dict):
            stack += v
            stack += v.values()
        elif isinstance(v, list):
            stack += v
    return False


def numbered_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """The (line number, line) pairs of a file's non-blank lines, split on "\\n" only.

    It reads the JSON-lines files and the config. JSON allows "\\r" as
    whitespace between tokens, and U+2028, U+2029 and U+0085 raw inside a
    string, and a config comment may hold a form feed, so neither reader may
    split on them as universal-newline reading and `str.splitlines` do. Each
    line loses one trailing "\\r", so a "\\r\\n" ending reads as "\\n" does.
    Bytes that are not UTF-8 are an InputError naming the file, as in
    `read_text`.
    """
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text ({e})") from None
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")
        if line.strip():
            yield line_no, line
