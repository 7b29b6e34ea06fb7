"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over seconds to minutes, with the program unchanged. A fixed pure-Python
kernel, timed between operations throughout a measurement, samples that
speed. Each measured time is scaled by ``REFERENCE_KERNEL_S`` over the
median of the kernel samples taken just before and after it: the time it
would have taken on a machine where the kernel takes ``REFERENCE_KERNEL_S``.
A change to the program moves the operations but not the kernel, so it
still shows in full; a slow or fast stretch of the host moves both and
cancels out. The unscaled times are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
from itertools import product
from time import perf_counter

#: Kernel time of the reference machine. On a 2-vCPU Xeon VM with CPython
#: 3.11 the kernel's median ranged from 4.5 to 9 ms with the host's load.
REFERENCE_KERNEL_S = 0.005


def kernel() -> int:
    """Fixed interpreter work of the kind the program does: tuples from a
    product, dict records, a keyed sort, string formatting and set algebra."""
    records = {}
    for a, b, c in product(range(16), range(16), range(12)):
        records[(a, b, c)] = {"cost": a * b + c, "name": f"e{a}-{b}-{c}", "tags": {a, b}}
    total = 0
    for key, rec in sorted(records.items(), key=lambda item: (item[1]["name"], item[0])):
        total += rec["cost"] + len(rec["tags"] & {key[2]})
    return total


class Calibration:
    """Kernel samples taken while a measurement runs."""

    def __init__(self, samples: list[float] | None = None) -> None:
        self.samples: list[float] = samples or []
        self.spent_s = 0.0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = perf_counter()
            kernel()
            elapsed = perf_counter() - start
            self.samples.append(elapsed)
            self.spent_s += elapsed

    def scaled(self, times: list[float], positions: list[int], window: int) -> list[float]:
        """``times`` at the reference speed. ``times[i]`` was measured when
        ``positions[i]`` samples had been taken; it is scaled by the median
        of the ``window`` samples before and the ``window`` after it."""
        out = []
        for time, at in zip(times, positions):
            near = self.samples[max(0, at - window):at + window] or self.samples
            out.append(time * REFERENCE_KERNEL_S / statistics.median(near))
        return out
