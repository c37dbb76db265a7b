"""How fast the host runs right now, from a fixed calibration kernel.

The benchmark runs on a few cores of a shared host whose speed swings by up
to 2x over seconds to minutes; a 25-second run can sit wholly in a slow or a
fast stretch, so raw wall times of the same code spread by more than any
useful regression bound. To cancel that, a round times each of its phases
between two runs of `kernel`, a fixed piece of work that uses only the
standard library and numpy, in the mix the simulation loop uses: small numpy
calls in a Python loop, JSON round trips, regex tokenising, dict updates, and
a walk over more small objects than the caches hold. The last part matters:
the loop's own objects outgrow the caches, so a contended host slows it less
than it slows compute alone, and a kernel without that part overstates the
slowdown.
No `elicit` code runs in it, so a change to the program moves a phase's time
and not the kernel's, and shows in full; a change in the host's speed moves
both, and cancels in their ratio.

`scaled` turns a phase's wall time into reference seconds: the time the
phase would take on a host on which the kernel takes `REFERENCE_S`.
"""

from __future__ import annotations

import json
import re
import zlib
from time import perf_counter

import numpy as np

# the kernel's time on a 2-core Intel Xeon host in its faster stretches
REFERENCE_S = 0.035

_rng = np.random.default_rng(0)
_VECTORS = [_rng.standard_normal(64) for _ in range(200)]
_TEXT = " ".join(f"word{i % 53} is here, and? then" for i in range(60))
_TOKEN_RE = re.compile(r"[a-z0-9']+")
_DOC = {
    "turns": [
        {"i": i, "q": _TEXT[:80], "belief": [0.1 * j for j in range(12)], "f": {"a": i, "b": str(i)}}
        for i in range(40)
    ]
}


class _Item:
    __slots__ = ("key", "label", "pair")

    def __init__(self, i: int):
        self.key = i
        self.label = str(i)
        self.pair = (i % 7, self.label)


_ITEMS = [_Item(int(i)) for i in _rng.permutation(40000)]  # visited in a scattered memory order


def kernel() -> float:
    """Run the calibration kernel once; its wall time in seconds."""
    start = perf_counter()
    q, best = _VECTORS[0], None
    for _ in range(3):
        for i, v in enumerate(_VECTORS):
            cand = (float(np.dot(q, v) / (np.linalg.norm(q) * np.linalg.norm(v))), ("p", i), i)
            if best is None or cand[0] > best[0]:
                best = cand
    for _ in range(8):
        json.loads(json.dumps(_DOC, sort_keys=True))
    for _ in range(15):
        for tok in _TOKEN_RE.findall(_TEXT.lower()):
            zlib.crc32(tok.encode("utf-8"))
    counts: dict[str, int] = {}
    for i in range(15000):
        key = str(i % 97)
        counts[key] = counts.get(key, 0) + i
    top = None
    for _ in range(2):
        for item in _ITEMS:
            if item.key % 3:
                cand = (item.pair, item.key)
                if top is None or cand > top:
                    top = cand
    return perf_counter() - start


def scaled(wall_s: float, before: float, after: float) -> float:
    """`wall_s` in reference seconds, given the kernel times measured around it."""
    return wall_s * REFERENCE_S / ((before + after) / 2)
