"""Special functions: the entire series f_ell, the forbidden-matching count
h(a, b), and exact/asymptotic falling-factorial edge probabilities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class SeriesValue:
    """A truncated series value with a certified tail bound."""

    value: float
    truncation_index: int
    tail_bound: float


def f_eval(ell: int, x: float, tol: float = 1e-12) -> SeriesValue:
    """Evaluate f_ell(x) = sum_i x^(i*ell) / (i!)^ell by partial sums.

    Truncates once the next term is < tol/2 and the term ratio
    (x/(i+1))^ell has dropped below 1/2, so the geometric tail is
    certified < tol/2 as well.  Raises ValueError when a term is not a
    finite float (x too large for ell, or x not a number).
    """
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    terms = [1.0]
    term = 1.0
    i = 0
    while True:
        try:
            nxt = term * (x / (i + 1)) ** ell
            ratio = (x / (i + 2)) ** ell  # bounds all later term ratios
        except OverflowError:
            nxt = math.inf
        if not math.isfinite(nxt):
            raise ValueError(f"f_{ell}({x}): term {i + 1} is not a finite float")
        if nxt < tol / 2 and ratio <= 0.5:
            tail = nxt / (1.0 - ratio)
            return SeriesValue(
                value=math.fsum(terms), truncation_index=i, tail_bound=tail
            )
        terms.append(nxt)
        term = nxt
        i += 1


def f_at_one_bounds(ell: int) -> tuple[Fraction, Fraction]:
    """Two-sided bound on f_ell(1): lower 2, upper 2 + 1/(2^ell - 1)."""
    if ell < 1:
        raise ValueError(f"ell must be >= 1, got {ell}")
    return Fraction(2), Fraction(2) + Fraction(1, 2**ell - 1)


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


def h_asymptotic(a: int, b: int) -> float:
    """Leading approximation a!/e, valid in the window a - a^(1/10) <= b <= a.

    Computed via log-gamma to avoid overflow; diagnostics only, never used
    in exact paths.
    """
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    if not (a - a ** (1 / 10) <= b <= a):
        raise ValueError(f"b={b} outside the window [a - a^(1/10), a] for a={a}")
    return math.exp(math.lgamma(a + 1) - 1.0)


def falling_ratio_exact(a: int, b: int, x: int) -> Fraction:
    """(b)_x / (a)_x as an exact rational; equals C(a-x, b-x) / C(a, b)."""
    if not (0 <= x <= b <= a):
        raise ValueError(f"need 0 <= x <= b <= a, got a={a}, b={b}, x={x}")
    out = Fraction(1)
    for t in range(x):
        out *= Fraction(b - t, a - t)
    return out


def falling_ratio_asymptotic(a: int, b: int, x: int) -> float:
    """Explicit part of the asymptotic form (b/a)^x exp{(x^2/2)(1/a - 1/b)}.

    Diagnostic companion to falling_ratio_exact; the dropped correction is
    O(x^3/b^2 + x/b).
    """
    if not (0 <= x <= b <= a) or b <= 0:
        raise ValueError(f"need 0 <= x <= b <= a with b > 0, got a={a}, b={b}, x={x}")
    return (b / a) ** x * math.exp((x * x / 2.0) * (1.0 / a - 1.0 / b))


def edge_prob_exact(k: int, ell: int, m: int, x: int) -> Fraction:
    """Probability that x specified edges all survive uniform m-edge sampling
    of the k^2*ell blow-up edges; 0 when x > m."""
    total = k * k * ell
    if not (0 <= x <= total):
        raise ValueError(f"need 0 <= x <= {total}, got x={x}")
    if not (0 <= m <= total):
        raise ValueError(f"need 0 <= m <= {total}, got m={m}")
    if x > m:
        return Fraction(0)
    return falling_ratio_exact(total, m, x)
