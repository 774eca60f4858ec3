"""Host-speed calibration: a fixed reference kernel timed next to the ops.

The CPUs of a shared host change speed as neighbours load the machine:
a fixed pure-Python loop takes from 52 to 76 ms on one vCPU of a 2-vCPU
cloud VM within a minute, in process CPU time as much as in wall time.
A raw timing then says as much about the host as about the program.

So the benchmark times :func:`kernel` just before and just after every
op (where ops overlap, every segment of ops), on each CPU the op may
use, and reports *calibrated* times: an op's seconds scaled by
``NOMINAL_S`` over the kernel's seconds around it, that is the time the
op would take on a host where the kernel takes ``NOMINAL_S``.  Time an
op spends waiting rather than on a CPU is left as measured
(:func:`scale`).  The kernel is benchmark code, so a change to the
program moves calibrated times as it moves raw ones; the raw figures
are printed beside them.  On the VM above this brings the spread of one
grid pass from 4.5-5.9 s to within 4% of its mean.
"""

from __future__ import annotations

import os
import statistics
import time

#: Kernel seconds that define the calibrated time scale.
NOMINAL_S = 0.001

#: Loop iterations of one kernel call (about 1 ms of CPython).
KERNEL_STEPS = 6000

#: Ops on each side of an op whose kernel samples set its reference.
WINDOW = 5

clock = time.perf_counter


def kernel() -> int:
    """Fixed dict and integer work, the mix the simulator's loops do."""
    counts: dict[int, int] = {}
    total = 0
    for step in range(KERNEL_STEPS):
        slot = step & 1023
        counts[slot] = counts.get(slot, 0) + step
        total += step % 7
    return total


def sample() -> float:
    """Seconds one kernel call takes, averaged over this process's CPUs.

    The kernel runs pinned to each allowed CPU in turn; the affinity is
    restored before returning, so children started later may use them
    all.
    """
    cpus = os.sched_getaffinity(0)
    if len(cpus) == 1:
        started = clock()
        kernel()
        return clock() - started
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            started = clock()
            kernel()
            times.append(clock() - started)
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(times)


def references(samples: list[float], window: int = WINDOW) -> list[float]:
    """Reference seconds of each of ``len(samples) - 1`` ops run one
    after another, from a kernel sample before the first op and one
    after each op.

    One sample is as noisy as the op beside it, so an op's reference is
    the median of the samples up to ``window`` ops away; host speed
    drifts over seconds, slowly next to one op.
    """
    return [
        statistics.median(samples[max(0, op - window):op + 2 + window])
        for op in range(len(samples) - 1)
    ]


def scale(seconds: float, reference_s: float, cpu_share: float = 1.0,
          ) -> float:
    """``seconds`` measured where the kernel took ``reference_s``, on the
    calibrated scale.

    Only the ``cpu_share`` of them spent on a CPU scales with host
    speed; the rest was spent waiting (on a disk, say) and stays as
    measured.
    """
    return seconds * (cpu_share * NOMINAL_S / reference_s + 1.0 - cpu_share)
