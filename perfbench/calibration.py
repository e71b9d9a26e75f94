"""The calibration slice that scales the benchmark's times to a reference speed."""

import time
from fractions import Fraction

#: The CPU seconds one slice takes at the reference speed.
REFERENCE_SLICE_S = 0.0008


def calibration_slice() -> float:
    """The CPU seconds of a fixed piece of pure-Python work, under a millisecond.

    Half of it is Fraction arithmetic, small sorts and dict stores, half a
    subset-sum sweep over a list of ints: the two kinds of work camech
    spends its time on (the greedy and axiom layers, and the bitmask DP),
    which the host's load slows down by different amounts.  No camech code
    runs in it, so a change to camech leaves it alone.
    """
    start = time.process_time()
    table = {}
    for i in range(1, 41):
        x = Fraction(i, i + 7) * Fraction(3, i + 1) + Fraction(1, i % 5 + 1)
        table[i % 17] = sorted((i % 5, i % 3, i % 7, x.denominator % 11))
    best = list(range(1024))
    for j in range(12):
        cur = best.copy()
        mask = (j * 37) & 1023
        s = mask
        while True:  # every superset of mask
            take = j + best[s ^ mask]
            if take > cur[s]:
                cur[s] = take
            if s == 1023:
                break
            s = (s + 1) | mask
        best = cur
    return time.process_time() - start
