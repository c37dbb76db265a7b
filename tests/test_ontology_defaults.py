"""`build_components` resolves the ontology, and every role takes it once, at
construction. So `default_ontology` is named only where the ontology is
defined and at the entry points that may be called without one; anywhere
else, a second source of defaults must fail here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "elicit"
NAME = "default_ontology"
ALLOWED = frozenset({
    "runner.build_components", "bank.synthesize_bank", "cli._load_ontology",
    "runner:import", "bank:import", "cli:import",
})


def places_naming(source: str, module: str, name: str = NAME) -> list[str]:
    """Each place `source` names `name`: the enclosing `module.Class.function`,
    or `module` for module level, with ":import" added for an import."""
    places = []

    def visit(node, scope):
        if isinstance(node, ast.ImportFrom | ast.Import):
            if any(alias.name.rpartition(".")[2] == name for alias in node.names):
                places.append(scope + ":import")
        elif isinstance(node, ast.Name) and node.id == name or isinstance(node, ast.Attribute) and node.attr == name:
            places.append(scope)
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            scope = f"{scope}.{node.name}"
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    return places


def test_default_ontology_is_named_only_where_the_ontology_is_resolved():
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "ontology.py"]
    places = {p.stem: found for p in modules if (found := places_naming(p.read_text("utf-8"), p.stem))}
    assert len(modules) > 10 and places
    assert {place for found in places.values() for place in found} <= ALLOWED, places


def test_a_role_or_context_that_falls_back_to_the_default_ontology_is_caught():
    source = """
from dataclasses import dataclass, field
from . import ontology
from .ontology import Ontology, default_ontology


@dataclass(frozen=True)
class SessionContext:
    ontology: Ontology = field(default_factory=default_ontology)


class RuleDetector:
    def __init__(self, ontology=None):
        self.ontology = ontology or ontology.default_ontology()


def build_components(cfg, ontology=None):
    return ontology or default_ontology()
"""
    assert places_naming(source, "m") == [
        "m:import",
        "m.SessionContext",
        "m.RuleDetector.__init__",
        "m.build_components",
    ]
