"""Host speed: a fixed pure-Python kernel, timed around measured work.

On a shared host the same code runs up to 1.4-2x slower from one
second to the next (other tenants' load on the same cores and caches),
and CPU time tracks wall time through it (there is no steal time to
subtract), so a run's reading inherits the host's speed at that
moment.  The benchmark times this kernel right before and right after
each measured slice (and each short set-up) and scales what was timed
in between by ``factor(reading) = REFERENCE_MS / reading``: its time
at the host speed where the kernel takes ``REFERENCE_MS``.

The kernel is the benchmark's own code and shares nothing with the
program under test, so a change to the program moves the scaled figures
by the same share as the raw ones; only the host's speed drops out.  It is
a heap-based Dijkstra over a fixed random graph small enough to stay in
cache, timed as the median of a few back-to-back repetitions.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time

#: Kernel milliseconds that define the reference host speed (factor 1).
REFERENCE_MS = 1.0
#: Back-to-back repetitions per reading; their median is the reading.
REPEATS = 7

_VERTICES = 600
_DEGREE = 3


def _graph() -> list[list[tuple[int, float]]]:
    rng = random.Random(7)
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(_VERTICES)]
    for v in range(_VERTICES):
        for _ in range(_DEGREE):
            u, w = rng.randrange(_VERTICES), rng.random()
            adjacency[v].append((u, w))
            adjacency[u].append((v, w))
    return adjacency


_ADJACENCY = _graph()


def kernel() -> int:
    """One single-source shortest-path run; returns the vertices reached."""
    dist = {0: 0.0}
    heap = [(0.0, 0)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for u, w in _ADJACENCY[v]:
            nd = d + w
            if nd < dist.get(u, float("inf")):
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return len(dist)


def kernel_ms() -> float:
    """One reading: the median of ``REPEATS`` back-to-back kernel runs, in ms."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(times)


def factor(reading_ms: float) -> float:
    """Multiply a time measured at a host speed read as ``reading_ms`` by
    this to get the time at reference speed."""
    return REFERENCE_MS / reading_ms
