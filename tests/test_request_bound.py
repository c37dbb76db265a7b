"""`run --parallel N` is the one bound on the backend requests in flight: `run_batch`
runs its episodes on a pool of N threads, and each episode makes its requests one at
a time. A second bound, such as a semaphore in the backend client, would silently
cap what N asks for, so no module but `runner` may name a pool or a semaphore."""

from pathlib import Path

from test_ontology_defaults import places_naming

SRC = Path(__file__).resolve().parents[1] / "src" / "elicit"
NAMES = ("Semaphore", "BoundedSemaphore", "ThreadPoolExecutor")
ALLOWED = frozenset({"runner:import", "runner.run_batch"})


def _places(source: str, module: str) -> list[str]:
    return [place for name in NAMES for place in places_naming(source, module, name)]


def test_only_run_batch_bounds_the_work_in_flight():
    modules = sorted(SRC.glob("*.py"))
    places = {p.stem: found for p in modules if (found := _places(p.read_text("utf-8"), p.stem))}
    assert len(modules) > 10 and places
    assert {place for found in places.values() for place in found} <= ALLOWED, places


def test_a_client_that_caps_its_requests_is_caught():
    source = """
import threading


class HttpBackend:
    def __init__(self, config, transport):
        self._semaphore = threading.BoundedSemaphore(config.max_concurrency)
"""
    assert _places(source, "backends") == ["backends.HttpBackend.__init__"]
