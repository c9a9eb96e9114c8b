"""The machine's speed at a moment, measured by a fixed pure-Python kernel.

On a host shared with other tenants, the same code runs 20-40% slower for
minutes at a time, and its CPU time slows as much as its wall time, so
neither resolves a change in the program from one run to the next. The
benchmark therefore times `kernel()` between the steps of every operation
and scales each step's wall time by `REFERENCE_MS` over the median kernel
time measured around it: the step's time at the reference speed. The kernel
touches nothing of `fairline`, so a change to the program moves the scaled
time as much as it moves the wall time.
"""

from __future__ import annotations

import gc
import statistics
import time

# The kernel's median time on the 2-core x86 VM (Python 3.11) where the
# bounds were set, so that scaled times read as wall times there.
REFERENCE_MS = 3.7

# A step's speed is the median of this many kernel samples on each side of it.
WINDOW = 2

# Fixed inputs: 3000 floats in [0, 1), three groups.
_DATA = [((i * 7919) % 3001) / 3001.0 for i in range(3000)]


def _dist(x: float, y: float) -> float:
    return x - y if x > y else y - x


def kernel() -> float:
    """Fixed work of the program's kind: sorting tuples, dict updates, float arithmetic, calls."""
    points = sorted((x, i % 3) for i, x in enumerate(_DATA))
    totals: dict[int, float] = {}
    nearest = 0.0
    for x, group in points:
        totals[group] = totals.get(group, 0.0) + _dist(x, 0.5)
        nearest += min(_dist(x, 0.1), _dist(x, 0.5), _dist(x, 0.9))
    return nearest + sum(totals.values())


def sample() -> float:
    """Milliseconds one call of `kernel()` takes now.

    A first call, untimed, absorbs the cache and allocator state the last
    operation left behind; the collector is off while the kernel runs, so
    its time does not depend on how many objects the program keeps alive.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        kernel()
        t0 = time.perf_counter()
        kernel()
        return (time.perf_counter() - t0) * 1e3
    finally:
        if collecting:
            gc.enable()


def local_speed(speed_ms: list[float], k: int) -> float:
    """Kernel time around step k, which ran between samples k and k + 1."""
    return statistics.median(speed_ms[max(0, k - WINDOW + 1) : k + WINDOW + 1])


def op_times(report: dict) -> tuple[list[float], list[float]]:
    """Wall time and time at the reference speed of each operation that did not fail."""
    failed = set(report["failed_ops"])
    wall: dict[int, float] = {}
    scaled: dict[int, float] = {}
    for k, (ms, op) in enumerate(zip(report["steps_ms"], report["step_op"])):
        if op in failed:
            continue
        wall[op] = wall.get(op, 0.0) + ms
        if len(report["speed_ms"]) > 1:
            scaled[op] = scaled.get(op, 0.0) + ms * REFERENCE_MS / local_speed(report["speed_ms"], k)
    return list(wall.values()), list(scaled.values())
