"""Machine-speed calibration that takes the drift of a shared machine out of timings.

On a shared machine the speed of the whole interpreter drifts, by up to 2x
over tens of seconds, as other tenants come and go; CPU time drifts with
wall time, so it is no remedy.  A fixed pure-Python loop slows down with
the machine.  The benchmark times it next to every operation (and in every
set-up probe) and rescales each time by REF_MS / (loop time), which
reports what the program costs at one fixed machine speed: the speed at
which the loop takes REF_MS.
"""

import time

LOOP = 50_000
REPEATS = 3
REF_MS = 5.5
"""Typical calibration_ms() between operations on the 2-core machine the benchmark was defined on."""


def calibration_ms() -> float:
    """Wall milliseconds of the fixed loop, the fastest of REPEATS runs.

    The fastest run drops a preemption that hits one run only; a slowdown
    that lasts, which is the drift, shows in all of them.
    """
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(LOOP):
            acc += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best * 1e3
