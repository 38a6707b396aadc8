"""Special functions: the entire series f_ell, the forbidden-matching count
h(a, b), and the asymptotic falling-factorial ratio (b)_x / (a)_x (its exact
form is the oracle `oracles.falling_ratio_exact`).
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


def h_exact(a: int, b: int) -> int:
    """Number of perfect matchings of K_{a,a} avoiding a fixed b-edge matching.

    Inclusion-exclusion: sum_w (-1)^w C(b,w) (a-w)!.  Always in [0, a!];
    h(a, a) is the derangement number of a.
    """
    if a < 0 or b < 0 or b > a:
        raise ValueError(f"need 0 <= b <= a, got a={a}, b={b}")
    return sum(
        (-1) ** w * math.comb(b, w) * math.factorial(a - w) for w in range(b + 1)
    )


def falling_ratio_asymptotic(a: int, b: int, x: int) -> float:
    """Explicit part of the asymptotic form (b/a)^x exp{(x^2/2)(1/a - 1/b)}.

    Diagnostic companion to `oracles.falling_ratio_exact`; the dropped
    correction is O(x^3/b^2 + x/b).
    """
    if not (0 <= x <= b <= a) or b <= 0:
        raise ValueError(f"need 0 <= x <= b <= a with b > 0, got a={a}, b={b}, x={x}")
    return (b / a) ** x * math.exp((x * x / 2.0) * (1.0 / a - 1.0 / b))

