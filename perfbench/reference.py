"""Host speed, measured beside the program, so that its times can be given
at one fixed speed.

The benchmark runs on shared hosts whose single-core speed moves by up to
2x, from second to second and from minute to minute, as neighbours load
the same cores. The slowdown is even across tasks (every task of a slow
run was about 35% slower than in a fast one), so raw wall times of the same
code spread by a third between runs. A fixed kernel, integer arithmetic
in an interpreted loop (bihomcheck spends its time in such loops over
basis indices), is timed between the program's timed spans; a span's wall
time is multiplied by ``REFERENCE_S`` over the kernel's time around it,
which gives the span in seconds on a host where the kernel takes
``REFERENCE_S``. Raw wall times are recorded beside the scaled ones.
"""

from __future__ import annotations

import statistics
from time import perf_counter

KERNEL_STEPS = 300_000
# about the kernel's median time on the host the benchmark was defined on
# (a shared 2-vCPU Intel Xeon VM, Python 3.11.7)
REFERENCE_S = 0.030
# a task starts only after a fresh sample when this long has passed since
# the last one; cheap tasks share samples, so the kernel stays a small part
# of the run
SAMPLE_GAP_S = 0.5


def kernel_s():
    """Wall seconds of one run of the reference kernel."""
    start = perf_counter()
    acc = 0
    for i in range(KERNEL_STEPS):
        acc += i * i % 7
    return perf_counter() - start


class Speed:
    """Kernel times taken through a run, and the scale of a span in it."""

    def __init__(self):
        # (start, end, kernel seconds), in perf_counter time
        self.samples = []

    def sample(self):
        start = perf_counter()
        seconds = kernel_s()
        self.samples.append((start, start + seconds, seconds))

    def sample_if_due(self):
        if not self.samples or perf_counter() - self.samples[-1][1] >= SAMPLE_GAP_S:
            self.sample()

    def scale(self, start, end):
        """``REFERENCE_S`` over the mean kernel time of the last sample that
        ended before ``start`` and the first that began after ``end``."""
        before = [s for a, b, s in self.samples if b <= start][-1:]
        after = [s for a, b, s in self.samples if a >= end][:1]
        return REFERENCE_S / statistics.fmean(before + after)

    def median_s(self):
        return statistics.median(s for _, _, s in self.samples)
