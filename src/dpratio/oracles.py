"""Independent enumeration oracles for the exact formulas.

Slow by design: each one enumerates what the production route counts in
closed form, so the cross-checks in `dpratio.verify` compare two routes that
share no code.  Calls go through the module attributes (`counting.x`, not a
bare `x`), so wrappers installed on those modules (as `bench/spans.py` does)
see them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import counting, digraph, series


def h_bruteforce(a: int, b: int) -> int:
    """Perfect matchings of K_{a,a} avoiding the fixed matching {i -> i: i < b}."""
    return sum(
        1
        for sigma in itertools.permutations(range(a))
        if all(sigma[i] != i for i in range(b))
    )


def h_window_error(a: int) -> float:
    """max_b |e h(a,b)/a! - 1| over the window a - a^(1/10) <= b <= a.

    The deviation sits far below double precision for large a, so the
    comparison runs in 60-digit arithmetic.
    """
    import mpmath  # kept local: importing it costs `import dpratio` ~36 ms

    lo = math.ceil(a - a ** (1 / 10))
    fact = math.factorial(a)
    with mpmath.workdps(60):
        return float(
            max(
                abs(mpmath.e * mpmath.mpf(series.h_exact(a, b)) / fact - 1)
                for b in range(lo, a + 1)
            )
        )


def exhaustive_moments(k: int, ell: int, m: int) -> tuple[Fraction, ...]:
    """(E[X], E[Y], E[X^2], E[Y^2]) by enumerating every m-edge subgraph."""
    base = digraph.build_blowup(k, ell)
    n = math.comb(base.edge_count, m)
    sx = sy = sx2 = sy2 = 0
    for g in digraph.enumerate_subgraphs(base, m):
        c = counting.count_permanent(digraph.to_general(g))
        sx += c.derangements
        sy += c.permutations
        sx2 += c.derangements**2
        sy2 += c.permutations**2
    return (
        Fraction(sx, n),
        Fraction(sy, n),
        Fraction(sx2, n),
        Fraction(sy2, n),
    )
