"""CPU speed of a shared machine, and times scaled to a reference speed.

The machine this benchmark was built on is a 2-CPU virtual machine
whose CPUs run up to 40% slower for minutes at a time while neighbours
load the host, one CPU or both. Raw times then drift between runs far
more than any change worth measuring. Two things counter that:

- ``pin_to_fastest_cpu`` keeps the process, and so its children, on one
  CPU, so per-command times do not jump as the scheduler moves it;
- ``SpeedLog`` times a fixed pure-Python loop between commands, and
  ``scaled`` converts a raw interval to reference seconds: raw seconds
  times ``REFERENCE_SPIN_S`` over the mean loop time measured just
  before and just after it. A program change moves the raw time and
  not the loop, so it shows in full; a host slowdown moves both.

Raw times are kept next to the scaled ones in the run's details.
"""

from __future__ import annotations

import bisect
import os
import statistics
import time

SPIN_LOOPS = 100_000
# Time of spin() on a quiet baseline machine (Intel Xeon, 2.0 GHz,
# Python 3.11); scaled times read as seconds on that machine.
REFERENCE_SPIN_S = 0.006
SAMPLE_EVERY_S = 0.5


def spin() -> float:
    """Seconds for a fixed loop, the median of three runs."""
    runs = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(SPIN_LOOPS):
            total += i * i
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


def pin_to_fastest_cpu() -> None:
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return
    best = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        best[cpu] = spin()
    os.sched_setaffinity(0, {min(best, key=best.get)})


class SpeedLog:
    """Spin times sampled between pieces of work, with their clock times."""

    def __init__(self):
        self.times: list[float] = []
        self.spins: list[float] = []
        self.sample()

    def sample(self) -> None:
        spin_s = spin()
        self.times.append(time.perf_counter())
        self.spins.append(spin_s)

    def maybe_sample(self) -> None:
        """Sample when SAMPLE_EVERY_S has passed since the last sample."""
        if time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """end - start in reference seconds.

        Uses the last sample taken before ``start`` and the first taken
        after ``end``; take a sample after the work before calling this.
        """
        before = bisect.bisect_right(self.times, start) - 1
        after = bisect.bisect_left(self.times, end)
        spin_s = (self.spins[max(before, 0)] + self.spins[min(after, len(self.spins) - 1)]) / 2
        return (end - start) * REFERENCE_SPIN_S / spin_s
