"""Machine-speed canary: a fixed pure-python microbenchmark.

Recorded performance trajectories (``benchmarks/*.py``) mix numbers
from whatever host happened to run them, which muddies cross-run
comparisons: a 1.2x "regression" may just be a slower machine.  The
canary pins that down — a deterministic workload shaped like the
simulator hot path (heap pushes/pops of small tuples, dict counting,
bounded deque appends) whose throughput measures *this host running
this Python*, independent of the repository's own code evolving.

Every trajectory entry records ``canary_kops``; comparisons then
report canary-normalized ratios (events/sec divided by the host's
canary speed) alongside the raw numbers, so a real code regression
separates from host drift.

The workload is frozen: changing it would invalidate every recorded
trajectory entry.  Do not edit ``_canary_once`` — add a ``v2`` canary
alongside if a different shape is ever needed.
"""

from __future__ import annotations

import heapq
import time
from collections import deque

__all__ = ["CANARY_OPS", "run_canary"]

#: Iterations of the fixed inner loop; the published unit of work.
CANARY_OPS = 20_000


def _canary_once() -> dict[int, int]:
    """One pass of the frozen workload (LCG-driven heap/dict/deque mix)."""
    heap: list[tuple[int, int, int]] = []
    push = heapq.heappush
    pop = heapq.heappop
    table: dict[int, int] = {}
    ring: deque = deque(maxlen=64)
    seq = 0
    x = 0x2545F491
    for i in range(CANARY_OPS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        seq += 1
        push(heap, (x & 0xFFFF, seq, i & 7))
        if len(heap) > 512:
            t, _s, c = pop(heap)
            table[c] = table.get(c, 0) + 1
            ring.append((t, c))
    while heap:
        t, _s, c = pop(heap)
        table[c] = table.get(c, 0) + 1
    return table


def run_canary(repeats: int = 3) -> dict[str, float]:
    """Run the canary ``repeats`` times; report best-of throughput.

    Returns ``{"ops", "seconds", "kops"}`` where ``kops`` is thousands
    of canary loop iterations per second (best of *repeats*, the same
    convention as the anatomy-overhead benchmark).
    """
    best = float("inf")
    checksum = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        table = _canary_once()
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
        if checksum is None:
            checksum = sorted(table.items())
        elif sorted(table.items()) != checksum:
            raise RuntimeError("canary workload is not deterministic")
    return {
        "ops": float(CANARY_OPS),
        "seconds": best,
        "kops": CANARY_OPS / best / 1000.0,
    }
