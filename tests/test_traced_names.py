"""The benchmark's tracer patches functions and methods by name; a rename in the
package must fail here, not only in a benchmark run."""

import importlib.util
from pathlib import Path

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
