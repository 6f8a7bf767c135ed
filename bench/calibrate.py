"""A fixed reference computation that measures how fast the host runs now.

The host this benchmark was written on is a share of a busy machine: the
same Python computation takes up to twice as long in its slow phases,
which last from seconds to minutes, and process CPU time swings with wall
time, so it is not descheduling that a CPU clock could leave out.  Raw wall
times of two runs of the same code taken minutes apart then differ by more
than any useful bound.

So every timed operation is bracketed by ``reference()``, a computation of
this module's own that does the kinds of work the program does (exact
``Fraction`` matrix products like ``intmat.charpoly``, dict and list work on a
graph like the face tracing and the depth scans, plain integer loops), and
its wall time is scaled to a host on which ``reference()`` takes ``REF_MS``:

    scaled = wall * REF_MS / (mean of the reference times just before and after)

The reference never calls ``divides``, so a change to the program moves the
scaled figures exactly as it moves the raw ones.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

# About the median wall time of reference() on the host the reference
# figures in README.md come from (Intel Xeon, Python 3.11.7).  Scaled times
# read as ms (or s) of that host.
REF_MS = 20.0
REPEAT = 3

_rng = random.Random(20231017)
_N = 8
_FRAC = [[Fraction(_rng.randint(-3, 3)) for _ in range(_N)] for _ in range(_N)]
_NODES = 2000
_GRAPH = {
    i: [(i * 7 + 3) % _NODES, (i * 13 + 1) % _NODES, (i + 1) % _NODES]
    for i in range(_NODES)
}


def _fractions() -> Fraction:
    w = [[Fraction(int(i == j)) for j in range(_N)] for i in range(_N)]
    for k in range(4):
        w = [
            [sum(_FRAC[i][l] * w[l][j] for l in range(_N)) / (k + 2) for j in range(_N)]
            for i in range(_N)
        ]
    return sum(w[i][i] for i in range(_N))


def _graph() -> int:
    seen = {0: 0}
    queue = [0]
    for u in queue:
        for v in _GRAPH[u]:
            if v not in seen:
                seen[v] = seen[u] + 1
                queue.append(v)
    edges = sorted((min(u, v), max(u, v)) for u in _GRAPH for v in _GRAPH[u])
    return sum(seen.values()) + len(set(edges))


def _loop() -> int:
    s = 0
    d: dict[int, int] = {}
    for i in range(30000):
        s += i * i % 7
        d[i & 255] = s
    return s


_EXPECTED = (_fractions(), _graph(), _loop())


def _once() -> float:
    t0 = time.perf_counter()
    got = (_fractions(), _graph(), _loop())
    elapsed = time.perf_counter() - t0
    if got != _EXPECTED:
        raise RuntimeError("reference computation gave a different result")
    return elapsed


def reference() -> float:
    """Median wall seconds of three runs of the reference computation.

    The median leaves out a run that an interrupt or a short stall slowed.
    The garbage collector is off meanwhile, so that collecting the program's
    garbage is not charged to the host.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_once() for _ in range(REPEAT))
    finally:
        if was_enabled:
            gc.enable()


def scale(wall: float, ref_before: float, ref_after: float) -> float:
    """``wall`` as it would read on a host where reference() takes REF_MS."""
    return wall * (REF_MS / 1000.0) / ((ref_before + ref_after) / 2.0)
