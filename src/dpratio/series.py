"""Special functions: the entire series f_ell and the table of
forbidden-matching counts h(a, b), by their recurrence.  The
inclusion-exclusion form of h(a, b) is the oracle `oracles.h_exact`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SeriesValue:
    """A truncated series value with a certified tail bound."""

    value: float
    truncation_index: int
    tail_bound: float


def f_eval(ell: int, x: float) -> SeriesValue:
    """Evaluate f_ell(x) = sum_i x^(i*ell) / (i!)^ell to float precision.

    Truncates once the next term is below 2^-53 times the partial sum and
    the term ratio (x/(i+1))^ell has dropped to 1/2 or below, so the
    geometric tail is certified below 2^-52 times the value, under the
    float's own rounding.  Raises ValueError when the partial sum is not a
    finite float (x too large for ell, or x not a number).
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    terms = [1.0]
    term = total = 1.0
    i = 0
    while True:
        try:
            nxt = term * (x / (i + 1)) ** ell
            ratio = (x / (i + 2)) ** ell  # bounds all later term ratios
        except OverflowError:
            nxt = math.inf
        if nxt < total * 2.0**-53 and ratio <= 0.5:
            tail = nxt / (1.0 - ratio)
            return SeriesValue(
                value=math.fsum(terms), truncation_index=i, tail_bound=tail
            )
        total += nxt
        if not math.isfinite(total):
            raise ValueError(f"f_{ell}({x}): the sum to term {i + 1} is not a finite float")
        terms.append(nxt)
        term = nxt
        i += 1


def h_table(k: int) -> list[list[int]]:
    """Rows h[a][b] = h(a, b) for 0 <= b <= a <= k, where h(a, b) counts the
    perfect matchings of K_{a,a} avoiding a fixed b-edge matching: always in
    [0, a!], and h(a, a) is the derangement number of a.

    One subtraction an entry: h(a, 0) = a! and h(a, b) = h(a, b-1) -
    h(a-1, b-1), since of the matchings avoiding the first b-1 edges, those
    using edge b are the matchings of K_{a-1,a-1} avoiding b-1 edges.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    h = [[1]]
    for a in range(1, k + 1):
        row = [a * h[-1][0]]
        for prev in h[-1]:
            row.append(row[-1] - prev)
        h.append(row)
    return h
