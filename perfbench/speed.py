"""Machine-speed calibration.

The benchmark runs on a few vCPUs of a shared host.  Each vCPU switches
between a fast and a slow speed (about 20 and 30 ms for the interpreter pass
below on a 2-vCPU Xeon VM) within a second, and how long it spends slow drifts
over minutes, so absolute times of runs made minutes apart differ by more than
the regressions the benchmark must catch.  A run therefore keeps to one CPU
and takes a calibration sample before and after every timed interval (never
inside one), and reports each interval at reference speed: raw time x
``REFERENCE_S`` / the speed estimated for that interval.

A pass's work is fixed, never derived from measured time, so two commits are
scaled by the same yardstick.  It runs with the garbage collector off, so the
objects a library keeps alive cannot slow the yardstick.  There are two kinds,
because the host's slow phases slow numpy array kernels less than the
interpreter: each workload calibrates with the kind its ops spend their time
in.  The raw metrics are printed with every result.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

# nominal: about the interpreter pass's time on a 2-vCPU Xeon VM at its fast speed
REFERENCE_S = 0.020
CORRELATION_S = 1.0     # about how long a vCPU keeps one speed


def _interpreter_pass() -> int:
    """Integer arithmetic, calls, list, dict and string operations."""
    table: dict = {}
    items = []
    acc = 0
    for i in range(30_000):
        acc = (acc * 31 + i) % 1_000_003
        items.append(acc & 255)
        table[acc & 1023] = table.get(acc & 1023, 0) + 1
        if i % 64 == 0:
            items = sorted(items)[-32:]
            acc ^= len(str(acc)) + max(table.values())
    return acc


def _array_pass() -> int:
    """Chunked int64 array arithmetic of the shape numpy kernels run, in
    chunks small enough (about 2 MB) not to raise a run's peak memory."""
    import numpy as np
    powers = 7 ** np.arange(6, dtype=np.int64)
    count = 0
    for start in range(0, 1 << 17, 1 << 15):
        ids = np.arange(start, start + (1 << 15), dtype=np.int64)
        digits = (ids[:, None] // powers[None, :]) % 7
        alive = np.ones(len(ids), dtype=bool)
        for a, b, c, d in ((0, 5, 1, 4), (2, 3, 1, 5), (0, 4, 2, 3)):
            alive &= (digits[:, a] * digits[:, b] - digits[:, c] * digits[:, d]) % 7 == 0
        count += int(alive.sum())
    return count


PASSES = {"interpreter": _interpreter_pass, "array": _array_pass}


def calibrate(kind: str = "interpreter") -> float:
    """Seconds one pass of ``kind`` takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        PASSES[kind]()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(times: list[float], calibration: list[float]) -> list[float]:
    """``times`` scaled to reference speed; ``calibration[i]`` and
    ``calibration[i + 1]`` were taken just before and after ``times[i]``.

    A short interval ran at about the speed of the samples around it; a long
    one spans many speed switches and ran at about the run's mean speed.  The
    estimate weighs the two by the interval's length against
    ``CORRELATION_S``."""
    run_mean = statistics.mean(calibration)
    out = []
    for i, t in enumerate(times):
        local = (calibration[i] + calibration[i + 1]) / 2
        weight = CORRELATION_S / (CORRELATION_S + t)
        out.append(t * REFERENCE_S / (weight * local + (1 - weight) * run_mean))
    return out


def pin() -> int:
    """Keep this process, and every process it starts, on one CPU, so that
    calibration and timed work run where the other runs: the vCPUs of a
    shared host change speed independently."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
