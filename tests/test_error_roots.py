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
    # errors.parse_json turns it into the JSONDecodeError every boundary does catch
    src = Path(elicit.__file__).parent
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("loads", "load")
        and isinstance(node.value, ast.Name) and node.value.id == "json"
    ]
    assert calls == []


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
