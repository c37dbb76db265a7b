"""Map a function over contiguous chunks of a list, one forked process per chunk.

The calling process maps the first chunk itself. Each further chunk is mapped
by one `os.fork`ed child, a copy-on-write image of the caller, which sends
`(ok, results or exception)` back pickled over a pipe and leaves by
`os._exit`. The caller reaps every child before it returns or raises. Where
`os.fork` does not exist, or another thread is running, the map runs on the
calling process: a forked child holds only the calling thread, so a lock that
another thread held at the fork would stay held in the child.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _payload(fn: Callable[[T], R], chunk: Sequence[T]) -> bytes:
    """A child's pickled `(ok, results or exception)`; an exception that will not round-trip keeps its message."""
    try:
        return pickle.dumps((True, [fn(x) for x in chunk]))
    except BaseException as e:
        try:
            return pickle.dumps((False, pickle.loads(pickle.dumps(e))))
        except Exception:
            return pickle.dumps((False, RuntimeError(f"{type(e).__name__}: {e}")))


def fan_out(fn: Callable[[T], R], items: Sequence[T], processes: int) -> list[R]:
    """`[fn(x) for x in items]` on up to `processes` processes, each mapping one contiguous chunk.

    The exception of the first failing item in list order is raised, as the
    serial loop raises it.
    """
    processes = min(processes, len(items)) if hasattr(os, "fork") and threading.active_count() == 1 else 1
    if processes <= 1:
        return [fn(x) for x in items]
    bounds = [len(items) * k // processes for k in range(processes + 1)]
    children = []  # (pid, read end of its pipe)
    try:
        for k in range(1, processes):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                try:
                    os.close(r)
                    with open(w, "wb") as pipe:
                        pipe.write(_payload(fn, items[bounds[k] : bounds[k + 1]]))
                finally:
                    os._exit(0)
            os.close(w)
            children.append((pid, open(r, "rb")))
        results = [fn(x) for x in items[: bounds[1]]]
        for pid, pipe in children:
            data = pipe.read()
            if not data:
                raise ChildProcessError(f"fan-out child {pid} exited without a result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.extend(value)
        return results
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
