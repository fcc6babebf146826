"""Machine-speed probe: a fixed kernel timed at intervals during a run.

On a shared machine a CPU's speed can change by half within seconds, and
each CPU changes on its own, so a reference timed before or after a run, or
on another CPU, does not see the speed the run saw. The probe runs a small
fixed kernel from a SIGALRM handler every INTERVAL_S of wall time while the
run executes, on the run's own CPU. Each sample gives the speed of the
stretch of the run that ends at it, and ``scaled`` adds up the stretches at
the speed where the kernel takes KERNEL_NOMINAL_S.

The kernel runs with the garbage collector held off, so a collection of the
program's heap never lands inside a sample, and one slow sample scales only
its own stretch of about INTERVAL_S. That the program's own work moves the
kernel little is measured, not assumed: see "Checking the speed probe" in
NOTES.md.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# the kernel's time on the baseline machine (see baseline.json) when its
# CPU runs at full speed
KERNEL_NOMINAL_S = 2.0e-4

_MATS = np.random.default_rng(0).normal(size=(8, 6, 6))


def kernel() -> float:
    """Small-array numpy calls and interpreted Python, the two kinds of work
    a tsgeom run is made of."""
    acc = 0.0
    for i in range(40):
        m = _MATS[i % 8]
        acc += float(np.einsum("ij,jk->", m, m))
        acc += sum(k * k for k in range(30))
    return acc


def timed_kernel() -> float:
    """Wall time of one ``kernel`` call, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_nominal_speed(wall_s: float, kernel_s: float) -> float:
    """A wall time measured while ``kernel`` took ``kernel_s``, at the
    speed where it takes KERNEL_NOMINAL_S."""
    return wall_s * KERNEL_NOMINAL_S / kernel_s


def kernel_time(repeats: int = 11) -> float:
    """Median time of ``kernel`` over ``repeats`` calls after a warm-up call.

    Speed changes last seconds, so this taken right after a short interval
    (such as interpreter set-up) gives the speed that interval saw.
    """
    kernel()
    return statistics.median(timed_kernel() for _ in range(repeats))


class SpeedProbe:
    """Context manager that times ``kernel`` every INTERVAL_S seconds."""

    def __init__(self):
        self.samples = []  # (perf_counter at the sample's start, its time)
        self.start = self.end = None
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame):
        if self._busy:  # a tick that arrives inside the kernel is dropped
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append((start, timed_kernel()))
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.end = time.perf_counter()
        signal.signal(signal.SIGALRM, self._previous)

    def wall_s(self) -> float:
        """Wall time inside the ``with`` block, the probe's own included."""
        return self.end - self.start

    def scaled(self) -> float:
        """Time of the ``with`` block less the probe's own, at the nominal
        speed. Each stretch between samples is taken at the speed of the
        sample that ends it, the stretch after the last sample at the last
        sample's."""
        if not self.samples:
            raise ValueError("the run ended before the first probe")
        total, prev = 0.0, self.start
        for start, kernel_s in self.samples:
            total += at_nominal_speed(start - prev, kernel_s)
            prev = start + kernel_s
        return total + at_nominal_speed(self.end - prev, self.samples[-1][1])
