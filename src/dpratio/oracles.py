"""Independent oracles for the exact formulas.

`h_bruteforce` and `exhaustive_moments` are slow by design: each enumerates
what the production route counts in closed form, so the cross-checks in
`dpratio.verify` compare two routes that share no code.  `h_window_error`
measures how close h(a, b) is to a!/e, in exact rationals.  Calls go
through the module attributes (`counting.x`, not a bare `x`), so wrappers
installed on those modules (as `bench/spans.py` does) see them.
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

    The window always holds b = a - 1, where the deviation is about 1/a
    (0.0999..., 0.05 and 0.025 at a = 10, 20, 40), so it decays like 1/a.
    Exact rationals: e lies between s = sum_{j<=60} 1/j! and s + 1/(60! 60),
    and as h(a, b) <= a!, each deviation moves by at most that width across
    the bracket.  Raises ValueError unless the maxima at both ends of the
    bracket round to the same float, which is returned.
    """
    lo = math.ceil(a - a ** (1 / 10))
    fact = math.factorial(a)
    hs = [series.h_exact(a, b) for b in range(lo, a + 1)]
    n, nfact = 60, math.factorial(60)
    s = Fraction(sum(nfact // math.factorial(j) for j in range(n + 1)), nfact)
    ends = {
        float(max(abs(e * h / fact - 1) for h in hs))
        for e in (s, s + Fraction(1, nfact * n))
    }
    if len(ends) != 1:
        raise ValueError(f"h_window_error({a}): the bracket on e does not fix the float")
    return ends.pop()


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
