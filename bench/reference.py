"""The machine's speed at a moment, from a fixed reference kernel.

The shared host this benchmark was built on runs one fixed piece of code
up to a third slower in some phases of seconds to tens of seconds than in
others, which a 30-second run cannot average away.  So an untraced run times
the kernel below (pure Python, no curvefold) in the untimed gap before every
operation and every set-up probe, and reports its time metrics in seconds
at reference speed: a measured time scaled by ``REFERENCE_S`` over the
median kernel time of the gaps around it.  A change to curvefold moves the
operations and not the kernel, so it shows in full; a slower phase of the
machine moves both and cancels.  The unscaled wall times are kept in the
result file.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# About the kernel's median time on the machine the bounds were measured
# on, so that scaled times read close to wall times there.
REFERENCE_S = 0.02
# Gaps on each side of a measurement whose kernel times are pooled.
WINDOW = 3

_TABLE = [(i % 17, 1 if i % 3 else -1) for i in range(64)]


def kernel() -> int:
    """Interpreter work of the kind curvefold does: tuple comparisons,
    indexing, integer arithmetic and ``Fraction`` sums."""
    total, acc = 0, Fraction(0)
    for i in range(40000):
        total += (i * 7) % 13
        if _TABLE[i % 64] == (i % 17, -1):
            total += 1
        if i % 16 == 0:
            acc += Fraction(i % 11 + 1, i % 7 + 1)
    return total + acc.numerator


class Speed:
    """Kernel times in the order they were taken."""

    def __init__(self):
        self.kernel_times: list[float] = []

    def sample(self) -> int:
        """Time the kernel once; returns the index of the sample."""
        start = time.perf_counter()
        kernel()
        self.kernel_times.append(time.perf_counter() - start)
        return len(self.kernel_times) - 1

    def scale(self, seconds: float, index: int) -> float:
        """``seconds`` measured next to sample ``index``, at reference speed."""
        near = self.kernel_times[max(0, index - WINDOW):index + WINDOW + 1]
        return seconds * REFERENCE_S / statistics.median(near)
