"""A speed gauge: a fixed pure-Python computation timed between benchmark items.

On a shared host the same call can take anywhere from 1x to 2x its quiet
time, depending on what the neighbours are doing, and that level drifts over
seconds to minutes.  The gauge sees the same slowdown, since it runs on the
same core before and after each item and, for items that run in this
process, every TICK_S seconds during the item (from a SIGALRM handler,
whose own time is taken out of the item's).  Times are reported at the
gauge's reference speed:

    normalised = measured * REFERENCE_S / median gauge time over the pass

so on a quiet machine they read close to plain wall seconds.  The gauge calls
nothing in effectalg, so a change to the library moves the normalised time by
as much as it moves the wall time.

Its mix follows the library's hot paths: a recursive search over tuples, set
membership, small-object construction and nested-list arithmetic, then a walk
through a 256 x 256 table like the axiom checks' scans of product tables.
Slowdowns hit the two parts by different shares, as they hit the searches and
the table checks.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

# Gauge time on a quiet 2-vCPU Xeon VM (CPython 3.11), in seconds.
REFERENCE_S = 0.0014
REPS = 5
TICK_S = 0.25


class _Node:
    __slots__ = ("key", "rank")

    def __init__(self, key, rank):
        self.key = key
        self.rank = rank


_SIDE = 256
_TABLE = [[(i * 7 + j * 13 + (i * j) % 5) % _SIDE for j in range(_SIDE)] for i in range(_SIDE)]


def _work() -> int:
    seen: set = set()
    nodes: list = []

    def dfs(prefix, rest):
        if len(prefix) == 4:
            key = tuple(sorted(prefix))
            if key not in seen:
                seen.add(key)
                nodes.append(_Node(key, len(nodes)))
            return
        for i, x in enumerate(rest):
            dfs(prefix + [x], rest[:i] + rest[i + 1:])

    dfs([], list(range(7)))
    table = [[(i * j + n.rank) % 11 for n in nodes] for i, j in enumerate(range(12))]
    total = sum(map(sum, table))
    x = y = 1
    for _ in range(7500):
        x = _TABLE[x][y]
        y = _TABLE[y][x ^ 5]
        total += x
    return total


_CHECK = _work()


def sample() -> float:
    """The median of REPS timings of the gauge computation, in seconds."""
    times = []
    for _ in range(REPS):
        t0 = perf_counter()
        if _work() != _CHECK:
            raise RuntimeError("the gauge computation gave a different result")
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Ticker:
    """While active, adds a gauge sample to `samples` every TICK_S seconds;
    `spent` is the time the samples took."""

    def __init__(self, samples: list):
        self.samples = samples
        self.spent = 0.0
        self._old = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(sample())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False
