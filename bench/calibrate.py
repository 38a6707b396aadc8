"""A fixed piece of pure-Python work that gauges the host's current speed.

On a shared virtual machine the speed drifts by up to 25% over tens of
seconds for any program (measured on 2 vCPUs of a 2.1 GHz
Xeon), which swamps the differences between two versions of dpratio.
Each entry-point call is bracketed by `calibrate()`, and the benchmark's
normalized timings scale the call by REFERENCE_S over the calibration
time, so that they read as seconds on a host running at the reference
speed.

The work mirrors dpratio's: masks and popcounts (Ryser sums), exact
fractions (edge probabilities) and big-integer products (convolutions).
Never change it: a normalized timing compares across commits only while
the calibration stays the same.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

#: Calibration time of a reference host, about that of a 2.1 GHz Xeon
#: running Python 3.11 undisturbed.
REFERENCE_S = 0.12

_ROWS = (
    0b1011011101101101, 0b0110110111011011, 0b1101101011110110, 0b0111011110101101,
    0b1010111101110110, 0b1101110110111010, 0b0111101101011011, 0b1011110111010101,
)
_REPEATS = 8


def calibrate() -> float:
    """Seconds taken by the fixed work."""
    t = time.perf_counter()
    for _ in range(_REPEATS):
        total = 0
        for s in range(1, 1 << 14):
            prod = 1
            for r in _ROWS:
                prod *= (r & s).bit_count()
            total += prod
        for _ in range(4):
            f = Fraction(1)
            for i in range(300):
                f *= Fraction(9000 - i, 12000 - i)
        big = math.factorial(400)
        acc = 0
        for i in range(1, 300):
            acc ^= big * (big + i)
    return time.perf_counter() - t
