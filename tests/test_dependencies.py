"""The package needs nothing at run time beyond the standard library and numpy;
scipy and hypothesis are test-only oracles. An import of anything else in a
module of the package must fail here, not on a machine that lacks it."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "elicit"
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy"}


def foreign_imports(source: str) -> list[str]:
    """The top-level names `source` imports that are neither allowed nor package-relative."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [n for n in (name.partition(".")[0] for name in names) if n not in ALLOWED]


def test_every_module_imports_only_the_standard_library_numpy_and_the_package():
    modules = sorted(SRC.glob("*.py"))
    foreign = {p.name: found for p in modules if (found := foreign_imports(p.read_text("utf-8")))}
    assert len(modules) > 10 and foreign == {}


def test_an_import_beyond_the_standard_library_and_numpy_is_caught():
    source = """
from __future__ import annotations
import json, urllib.request
import numpy as np
from . import ontology
from .backends import HttpBackend

def lazy():
    import scipy.stats
    from hypothesis import given
    from elicit import belief
"""
    assert foreign_imports(source) == ["scipy", "hypothesis", "elicit"]
