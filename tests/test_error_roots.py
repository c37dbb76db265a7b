"""Exit codes and episode aborts are decided by two error roots; a new error class
in the package that picks neither, and is not an internal check listed here, must
fail here rather than exit 1 or abort by accident."""

import ast
import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import elicit
from elicit.errors import BackendError, InputError, parse_json

ROOTS = (InputError, BackendError)

# checks that valid input never trips: tripping one is a bug and keeps its traceback
INTERNAL = {
    "elicit.bank.UnknownPatientError",
    "elicit.detector.EmptyResponseError",
    "elicit.metrics.EmptyGroundTruthError",
    "elicit.patient.EmptyAnchorError",
    "elicit.retrieval.EmptyTextError",
}


def _error_classes() -> dict[str, type]:
    """Every exception class defined in a module of the package, by dotted name, the roots left out."""
    found = {}
    for info in pkgutil.iter_modules(elicit.__path__):
        module = importlib.import_module(f"elicit.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__ and cls not in ROOTS:
                found[f"{cls.__module__}.{cls.__qualname__}"] = cls
    return found


def test_each_error_class_has_exactly_one_root_or_is_listed_as_internal():
    found = _error_classes()
    wrong = {
        name: [root.__name__ for root in ROOTS if issubclass(cls, root)]
        for name, cls in found.items()
        if sum(issubclass(cls, root) for root in ROOTS) != (name not in INTERNAL)
    }
    assert wrong == {}
    assert INTERNAL <= found.keys()  # the list names no class that is gone
    assert "elicit.cli.UsageError" in found and "elicit.selector.QuestionConstraintError" in found


def test_every_json_input_is_parsed_by_the_one_helper():
    # json.loads raises RecursionError for JSON nested too deeply, which no boundary catches;
    # errors.parse_json turns it into the JSONDecodeError every boundary does catch. Its decoder
    # (a JSONDecoder and its raw_decode) is named nowhere else either.
    src = Path(elicit.__file__).parent
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("loads", "load", "decoder", "JSONDecoder")
        and isinstance(node.value, ast.Name) and node.value.id == "json"
        or isinstance(node, ast.Attribute) and node.attr == "raw_decode"
        or isinstance(node, ast.alias) and node.name in ("JSONDecoder", "json.decoder", "raw_decode")
    ]
    assert calls == []


# bad JSON of three kinds that json.loads lets through as something other than a JSONDecodeError
_EXTRA_KINDS = {RecursionError: "nested too deeply", ValueError: "a number has too many digits to convert"}


def _as_json_loads_would(text: str):
    """What `parse_json(text)` must give: `json.loads`'s value, or its error's (msg, pos), the extra kinds mapped."""
    try:
        value = json.loads(text)
    except json.JSONDecodeError as e:
        return "error", e.msg, e.pos
    except (RecursionError, ValueError) as e:
        return "error", _EXTRA_KINDS[type(e)], 0
    try:
        json.dumps(value, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError:
        return "error", "a string holds a lone surrogate", 0
    return "value", repr(value)  # repr: NaN is no NaN's equal, and 1, 1.0 and True differ


def _as_parse_json_does(text: str):
    try:
        return "value", repr(parse_json(text))
    except json.JSONDecodeError as e:
        return "error", e.msg, e.pos


_SPACE = st.sampled_from(["", " ", "\t", "\n", "\r", "\r\n", "  \n", "\x0c", "\u00a0"])
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _json_texts(draw):
    """JSON (NaN and Infinity too) with any `\\u` escapes, wrapped in whitespace, a BOM or extra data."""
    body = json.dumps(draw(_VALUES), ensure_ascii=draw(st.booleans()))
    if draw(st.booleans()):  # JSON-ish text with escapes that may pair, or leave a surrogate alone
        body = draw(st.lists(st.sampled_from(
            ['"', '\\u', 'd800', 'dc00', 'D83D', '0041', '{', '}', '[', ']', ':', ',', '1', '-', '.5e3',
             'NaN', 'Infinity', 'true', 'x', ' ', '\\']
        ), max_size=12).map("".join))
    head = draw(st.sampled_from(["", "\ufeff"])) + draw(_SPACE)
    tail = draw(_SPACE) + draw(st.sampled_from(["", "", "1", "x", "{}", "\n\n[]"]))
    return head + body + tail


@settings(max_examples=400, deadline=None)
@given(_json_texts())
@example("\n 1 \r\n")
@example("\ufeff{}")
@example('{"a": 1} {"b": 2}')
@example("[NaN, -Infinity]")
@example("[" * 5000 + "]" * 5000)
@example("[" * 5000 + "]" * 5000 + "\n")
@example(" " + "[" * 5000)
@example('"\\ud83d\\ude00" ')
@example('"\\ud800"\n')
@example('["\\ud800", ')
def test_parse_json_gives_what_json_loads_gives_or_its_error(text):
    assert _as_parse_json_does(text) == _as_json_loads_would(text)


@pytest.mark.parametrize("text", ['{"x": ' + "1" * 5000 + "}\n", "[" + "9" * 4301 + ", 1]", "-" + "2" * 4301],
                         ids=["in-an-object", "in-an-array", "negative"])
def test_a_number_too_long_to_convert_is_bad_json(text):
    # json.loads raises a bare ValueError for it, which no boundary catches
    assert _as_json_loads_would(text) == ("error", "a number has too many digits to convert", 0)
    assert _as_parse_json_does(text) == _as_json_loads_would(text)


@pytest.mark.parametrize("text", [r'"\ud800"', r'"a\udfffb"', r'{"\udc00": 1}', r'[[{"k": ["x", "\ude00\ud83d"]}]]'])
def test_a_lone_surrogate_escape_is_bad_json(text):
    # json.loads returns it, and no UTF-8 writer can write it
    with pytest.raises(json.JSONDecodeError, match="a string holds a lone surrogate"):
        parse_json(text)


@pytest.mark.parametrize("text,value", [
    (r'"\ud83d\ude00"', "\U0001F600"),  # a pair is one code point
    (r'"\\ud800"', "\\ud800"),  # an escaped backslash, then text
    ('"\u00e9 \\u00e9"', "\u00e9 \u00e9"),
])
def test_escapes_that_make_no_lone_surrogate_still_parse(text, value):
    assert parse_json(text) == value
