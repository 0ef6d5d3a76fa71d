"""The machine's current speed, read from a fixed reference kernel.

The measuring VM shares its cores: for seconds to minutes at a time the
same code runs up to twice as slow, in CPU time as in wall time.  The
kernel below is pure-Python ``Fraction`` arithmetic, the kind of work the
engine does, and it never calls the engine.  Timed in the same process
right before and after an op, it tells how fast the machine ran at that
moment, and

    scaled time = CPU time * REFERENCE_S / kernel CPU time

is the op's CPU time at the speed where one kernel call takes REFERENCE_S.
A change to the engine moves the op time and leaves the kernel alone, so it
shows in the scaled time in full; a slow minute of the machine moves both
and cancels.  On the measuring VM, 5 s bins of a repeated cold ``analyze``
spread 0.23 (IQR/median) in CPU time and 0.02 in scaled time.
"""

from __future__ import annotations

from fractions import Fraction
from time import process_time

# About the CPU time of one kernel() call on a 2-vCPU Xeon VM at full speed.
REFERENCE_S = 0.005
TERMS = 1200


def kernel() -> Fraction:
    total = Fraction(0)
    for i in range(1, TERMS):
        total += Fraction(i % 13 + 1, i % 7 + 2) * Fraction(3, i % 5 + 1)
    return total


def sample() -> float:
    """CPU seconds of one kernel() call now."""
    start = process_time()
    kernel()
    return process_time() - start


def around(marks: list[tuple[int, float]]) -> list[float]:
    """The kernel seconds around each op of a run sampled between ops.

    ``marks`` are (index of the next op, kernel seconds) in op order, the
    first at index 0 and the last at the op count; op i gets the mean of
    the last mark at or before it and the first mark after it.
    """
    kernels = []
    for (i0, k0), (i1, k1) in zip(marks, marks[1:]):
        kernels += [(k0 + k1) / 2] * (i1 - i0)
    return kernels
