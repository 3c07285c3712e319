"""Fixed calibration loop that defines the benchmark's unit of work.

Every job is timed in "ref" units: its wall time divided by the mean time of
this loop measured immediately before and after it.  The loop mixes the kinds
of work ecseq spends its time on (small-int arithmetic, big-int shifts, dict
updates and Fraction additions), so a host that runs faster or slower for a
while moves the loop and the job together and the ratio stays put.

Do not edit this file: changing the loop changes the unit, and figures taken
before and after the edit would no longer compare.
"""

import time
from fractions import Fraction

ITERATIONS = 45_000


def calibration_work(iterations: int = ITERATIONS) -> int:
    """Run the fixed mix of work and return a checksum that depends on all of it."""
    acc = 1
    big = (1 << 2048) | 1
    table = {}
    total = Fraction(0)
    for i in range(iterations):
        acc = (acc * 1103515245 + 12345 + i) & 0xFFFFFFFF
        big = (big << 7) ^ (big >> 5) ^ acc
        big &= (1 << 4096) - 1
        key = acc & 1023
        table[key] = table.get(key, 0) + (i & 255)
        if i & 7 == 0:
            total += Fraction(i % 13 + 1, i % 11 + 2)
    return acc ^ big.bit_length() ^ len(table) ^ total.numerator % 1_000_003


def time_calibration() -> float:
    """Seconds taken by one pass of the calibration loop."""
    started = time.perf_counter()
    calibration_work()
    return time.perf_counter() - started
