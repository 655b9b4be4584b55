"""A fixed calibration load that tracks the shared host's speed.

The benchmark's host is shared with other tenants.  Their load slows
this program by up to 2x for stretches of tens of seconds to minutes,
which no run length averages away.  The load below times two halves
of about equal length on a quiet host:

- a sort and a dict-of-lists fill over 20,000 random tuples, which
  slows more than the program when the host is busy (over 20 runs
  each, fig7 and fig10 process times varied as its 0.64-0.67 power);
- a pure interpreter loop, which barely slows at all.

Their sum slows about as much as the program's processes.  ``run.py``
times the load before the first measured operation and after every
one, and reports set-up times and op latencies multiplied by
``REFERENCE_S / calibrant seconds``: seconds on a host where the load
takes ``REFERENCE_S``.  The load uses only builtins and a fixed seed,
so no change to the program moves it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# Seconds the load takes on a quiet host of the kind the benchmark was
# written on (2 vCPUs of a shared x86-64 server).
REFERENCE_S = 0.060
REPEATS = 3
ITEMS = 20_000
LOOP = 400_000


def load() -> int:
    rng = random.Random(7)
    items = [(rng.randrange(5000), rng.randrange(5000), i) for i in range(ITEMS)]
    items.sort()
    groups: dict[tuple[int, int], list[int]] = {}
    for a, b, i in items:
        groups.setdefault((a, b % 97), []).append(i)
    total = len(groups)
    for i in range(LOOP):
        total += i * i % 7
    return total


def calibrant_seconds() -> float:
    """Median seconds of ``REPEATS`` runs of the load, with the
    collector off so the caller's heap size does not enter the time."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            began = time.perf_counter()
            load()
            times.append(time.perf_counter() - began)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Clock:
    """Reference-speed time of work bracketed by calibrant samples.

    ``scale()`` samples the calibrant again and returns the factor for
    the work done since the previous sample: ``REFERENCE_S`` over the
    mean of the two samples around it.
    """

    def __init__(self) -> None:
        self.samples = [calibrant_seconds()]

    def scale(self) -> float:
        self.samples.append(calibrant_seconds())
        return REFERENCE_S / statistics.fmean(self.samples[-2:])
