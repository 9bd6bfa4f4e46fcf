"""A fixed reference kernel that gauges how fast the machine runs right now.

On a virtual machine that shares its host, the CPU speed a process gets
drifts by 30-60% in phases of seconds to minutes.  A pure-Python loop, a
small IRLS fit and an array kernel all slow together, and CPU time
(``time.thread_time``) drifts just as wall time does, so neither measure
alone tells a slower program from a slower moment.  The benchmark therefore
times this kernel in the gaps between units and reports a unit's wall time
scaled to the speed at which the kernel takes ``NOMINAL_MS``.

The kernel mixes the kinds of work the workloads do: a pure-Python loop,
small dense linear algebra shaped like one IRLS step at n = 1809, an array
function over 262 144 doubles and a random gather from them.  It calls numpy
only, never the package, so no change to the package can move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

clock = time.perf_counter

# The kernel's duration that scaled times are expressed at, about what it
# takes on a 2-vCPU x86_64 virtual machine (Xeon, numpy 2.4, OpenBLAS 0.3.31).
NOMINAL_MS = 15.0

# Readings on each side of an interval whose median sets its scale: single
# readings scatter by +-15% from one to the next, the drift moves over
# seconds, so a median of up to eight readings, about 2.4 s, follows the
# drift and not the scatter.
WIDTH = 4

_rng = np.random.default_rng(20250211)
_X = np.column_stack([np.ones(1809), _rng.standard_normal((1809, 3))])
_Z = (_rng.random(1809) < 0.4).astype(float)
_BIG = _rng.random(262_144)
_ROWS = _rng.integers(0, 262_144, size=262_144)


def kernel() -> float:
    total = 0
    for i in range(60_000):
        total += i * i
    beta = np.zeros(_X.shape[1])
    for _ in range(40):
        p = 1.0 / (1.0 + np.exp(-(_X @ beta)))
        w = p * (1.0 - p)
        np.linalg.solve(_X.T @ (w[:, None] * _X), _X.T @ (_Z - p))
    for _ in range(4):
        total += float(np.exp(_BIG).sum()) + float(_BIG[_ROWS].sum())
    return total


class Gauge:
    """Readings of the kernel's duration, one per ``every`` seconds of work.

    ``maybe`` is called between units: it takes one reading for every
    ``every`` seconds since the last, up to ``WIDTH``, so that long units
    (a 2 s truth table) still have ``WIDTH`` readings on each side.
    """

    def __init__(self, every: float = 0.3) -> None:
        self.every = every
        self.readings: list[tuple[float, float]] = []  # (start, seconds)

    @property
    def spent(self) -> float:
        return sum(seconds for _, seconds in self.readings)

    def read(self, times: int = 1) -> None:
        for _ in range(times):
            start = clock()
            kernel()
            self.readings.append((start, clock() - start))

    def maybe(self) -> None:
        if not self.readings:
            self.read()
            return
        owed = int((clock() - self.readings[-1][0]) / self.every)
        self.read(min(owed, WIDTH))

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_MS over the median kernel duration around [start, end].

        Readings are taken between units, so the ``WIDTH`` last ones before
        ``start`` and the ``WIDTH`` first ones after ``end`` bracket the
        interval.
        """
        before = [s for t, s in self.readings if t < start][-WIDTH:]
        after = [s for t, s in self.readings if t >= end][:WIDTH]
        near = before + after
        if not near:
            raise ValueError("no kernel reading next to the interval")
        return NOMINAL_MS / (1000.0 * statistics.median(near))
