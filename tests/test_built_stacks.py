"""A command builds only what it runs: `replay` and `detect` build their detector
alone, and `run --mode replay` builds no retrieval index. So the full component
stack is built only where a command runs it, and by `run_episode`'s fallback for
a caller that passes none; a command that starts building a stack it never runs
must fail here."""

from pathlib import Path

from test_ontology_defaults import places_naming

SRC = Path(__file__).resolve().parents[1] / "src" / "elicit"
NAME = "build_components"
ALLOWED = frozenset({
    "cli._cmd_run", "fidelity.loo_validate", "runner.run_episode",
    "cli._cmd_run:import", "fidelity:import",
})


def test_the_component_stack_is_built_only_where_it_is_run():
    modules = sorted(SRC.glob("*.py"))
    places = {p.stem: found for p in modules if (found := places_naming(p.read_text("utf-8"), p.stem, NAME))}
    assert len(modules) > 10 and places
    assert {place for found in places.values() for place in found} <= ALLOWED, places


def test_a_command_that_builds_a_stack_it_does_not_run_is_caught():
    source = """
from .runner import run_replay


def _cmd_replay(args):
    from .runner import build_components

    components = build_components(args.cfg, None)
    return run_replay(args.transcript, args.gt, args.cfg, components.detector)
"""
    assert places_naming(source, "cli", NAME) == ["cli._cmd_replay:import", "cli._cmd_replay"]
