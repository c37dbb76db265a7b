"""The benchmark's tracer patches functions and methods by name and reads some of
their arguments by position; a rename or a shifted parameter in the package must
fail here, not only in a benchmark run."""

import importlib.util
import inspect
from pathlib import Path

import pytest

from elicit import fidelity, runner
from elicit.retrieval import AnchorRetriever, FallbackEncoder

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_is_defined_on_its_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"
        for owner, attr, *_ in tracing._TARGETS
        if attr not in owner.__dict__
    ]
    assert tracing._TARGETS and missing == []


@pytest.mark.parametrize("owner,attr,name,position", [
    (runner, "run_episode", "episode_id", 4),
    (runner, "run_random", "episode_id", 4),
    (runner, "run_replay", "episode_id", 4),
    (fidelity, "_simulate_patient", "patient_id", 1),
    (AnchorRetriever, "retrieve", "exclude_patient", 2),  # counting self
    (FallbackEncoder, "encode", "text", 1),
], ids=lambda x: x if isinstance(x, str) else None)
def test_each_argument_a_tracing_hook_reads_sits_at_the_position_it_reads(owner, attr, name, position):
    # the hooks read these arguments by position when passed positionally; a shifted
    # parameter would tag spans with the wrong episode, patient or text without failing
    params = list(inspect.signature(getattr(owner, attr)).parameters.values())
    assert params[position].name == name
    assert params[position].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
