"""Host-speed reference: scale measured times to a fixed host speed.

On a shared machine the speed of the benchmark's own processor drifts:
a pure-Python loop can run twice as fast in one half-second slot as in
another, and a run can fall into a phase where the host stays twice as
slow for minutes.  Process CPU time does not help, because it tracks
wall time exactly (the slowdown is not time stolen by other guests but
slower execution).  So the benchmark measures the host's current speed
with a fixed piece of pure-Python work next to every timed cycle, and
reports every end-to-end time scaled by ``REFERENCE_S / reference time
measured around it``: the time the cycle would have taken on a host
that runs the reference work in ``REFERENCE_S``.  The two processors of
a 2-vCPU guest drift independently, so the benchmark pins its processes
and measures the speed of the processors they are pinned to.

A change to the program moves its time relative to the reference work
and so moves the scaled figures; a change of host speed moves both and
cancels.  The reference work uses no repro code.  Raw wall times are
kept in each run's details line.
"""

from __future__ import annotations

import json
import os
import statistics
import time

_clock = time.perf_counter

#: the reference work's duration at the reported scale (about its
#: median on a 2-vCPU x86 cloud guest; it only fixes the unit)
REFERENCE_S = 0.002
_ITEMS = 1500
#: processors whose mean speed :func:`measure` takes; empty: the
#: calling thread's own (see :func:`measure_on`)
_cpus: tuple = ()


def reference_work() -> int:
    """String and dictionary churn, a keyed sort and a JSON round trip.

    It creates no objects the cyclic garbage collector tracks (a dict
    holding only strings is untracked), so it leaves the collector's
    schedule, and with it the engine's own pauses, as they were.
    """
    table = {}
    for i in range(_ITEMS):
        table[f"k{i}"] = f"{i * 7919 % 10007:05d}"
    ordered = sorted(table, key=table.__getitem__)
    return len(json.loads(json.dumps(table))) + len(ordered)


def _time_once() -> float:
    started = _clock()
    reference_work()
    return _clock() - started


def measure_on(cpus) -> None:
    """From now on, :func:`measure` visits each of ``cpus`` in turn (the
    calling thread moves there and back) and averages their timings."""
    global _cpus
    _cpus = tuple(cpus)


def measure() -> float:
    """Seconds one run of the reference work takes now."""
    if not _cpus:
        return _time_once()
    home = os.sched_getaffinity(0)
    total = 0.0
    for cpu in _cpus:
        os.sched_setaffinity(0, {cpu})
        total += _time_once()
    os.sched_setaffinity(0, home)
    return total / len(_cpus)


def warm_up() -> None:
    for _ in range(3):
        reference_work()


def scale(before: float, after: float) -> float:
    """Factor for a time measured between two reference timings."""
    return REFERENCE_S / ((before + after) / 2.0)


def timed(fn):
    """Call ``fn()`` between three reference timings on each side.

    Returns ``(result, wall_seconds, scaled_seconds)``.
    """
    warm_up()
    before = [measure() for _ in range(3)]
    started = _clock()
    result = fn()
    wall = _clock() - started
    after = [measure() for _ in range(3)]
    factor = scale(statistics.median(before), statistics.median(after))
    return result, wall, wall * factor
