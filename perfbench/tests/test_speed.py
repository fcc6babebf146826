"""The machine-speed probe that scales run times."""

import gc
import signal
import time

import pytest

from perfbench.speed import (
    KERNEL_NOMINAL_S, SpeedProbe, at_nominal_speed, kernel_time, timed_kernel,
)


def test_probe_samples_while_busy_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.samples) >= 3
    assert probe.wall_s() >= 0.3
    assert all(probe.start < s < probe.end for s, _ in probe.samples)


def test_each_stretch_is_scaled_by_the_sample_that_ends_it():
    probe = SpeedProbe()
    probe.start, probe.end = 10.0, 10.5
    k = KERNEL_NOMINAL_S
    # 0.1 s at the nominal speed, then 0.2 s at half of it, then the rest
    # after the last sample (0.2 s less the two samples) at that speed
    probe.samples = [(10.1, k), (10.1 + k + 0.2, 2 * k)]
    assert probe.scaled() == pytest.approx(0.1 + 0.1 + (0.2 - 3 * k) / 2)


def test_scaling_needs_a_sample():
    with pytest.raises(ValueError):
        SpeedProbe().scaled()


def test_a_time_at_the_nominal_kernel_time_is_unchanged():
    assert at_nominal_speed(1.5, KERNEL_NOMINAL_S) == 1.5
    assert at_nominal_speed(1.5, 2 * KERNEL_NOMINAL_S) == 0.75
    assert kernel_time(repeats=2) > 0


def test_kernel_runs_with_the_collector_off_and_restores_it():
    gc.enable()
    assert timed_kernel() > 0 and gc.isenabled()
    gc.disable()
    try:
        assert timed_kernel() > 0 and not gc.isenabled()
    finally:
        gc.enable()
