"""Keep the benchmark's work on the least contended CPU it may use.

On a shared machine a neighbour's load can slow one CPU for tens of
seconds while another stays quiet, and a single-threaded process the
scheduler left on the slow one reads slow for as long as it stays
there.  ``pin_quietest`` times a short fixed loop on each CPU of a set
and pins this process to the fastest; children started afterwards
inherit the pin.  Where the platform cannot pin, or only one CPU is
allowed, it does nothing.
"""

from __future__ import annotations

import os
import time

#: Iterations of the timed loop, about 2 ms of pure Python.
LOOP = 50_000
#: Timings per CPU; the fastest counts.
TRIES = 3


def allowed_cpus() -> list[int]:
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _loop_seconds() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i
    return time.perf_counter() - start


def pin_quietest(cpus: list[int]) -> int | None:
    """Pin this process to the CPU of ``cpus`` where the loop runs fastest; return it."""
    if len(cpus) < 2:
        return None
    best: dict[int, float] = {}
    for _ in range(TRIES):
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            best[cpu] = min(best.get(cpu, float("inf")), _loop_seconds())
    cpu = min(best, key=best.__getitem__)
    os.sched_setaffinity(0, {cpu})
    return cpu
