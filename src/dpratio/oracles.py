"""Independent oracles for the exact formulas: every reference route the
cross-checks in `dpratio.verify` compare a production route against.

* count_bruteforce         -- counts by building every permutation, n <= 10;
* closed_form_counts       -- the full blow-up's counts in closed form;
* falling_ratio_exact      -- (b)_x / (a)_x as one reduced ratio of falling factorials;
* falling_ratio_asymptotic -- the explicit part of its asymptotic form;
* enumerate_subgraphs      -- every m-edge subgraph of a blow-up;
* h_exact                  -- h(a, b) by inclusion-exclusion;
* h_bruteforce             -- h(a, b) by enumerating permutations;
* h_window_error           -- the deviation of the production table
                              `series.h_table` from a!/e, in exact rationals;
* exact_law                -- the law of (X, Y) over every m-edge subgraph,
                              each counted by count_bruteforce.

Each shares no code with the route it checks, except `h_window_error`,
which measures the production table itself, and none calls a counter of
`dpratio.counting` or the kernels behind them, `dpratio.permanent`'s and
`dpratio.layered`'s; the enumerations are slow by design.  Only
`dpratio.verify` imports this module, so no production route rests on an
oracle (`tests/test_hygiene.py` enforces this).  Calls go through the
module attributes (`counting.x`, not a bare `x`), so wrappers installed on
those modules (as `bench/spans.py` does) see them.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterator

from . import counting, digraph, series

BRUTEFORCE_MAX_N = 10

#: Cap on the number of subgraphs enumerate_subgraphs will stream.
ENUMERATION_CAP = 10**7


def count_bruteforce(g: digraph.Digraph) -> counting.CountPair:
    """Count by building every permutation from the definition.

    Backtracking over vertices 0..n-1 in order: each vertex goes to itself
    or to an out-neighbour whose image slot is still free, so the work is
    the number of partial permutations of the digraph, at most about e * n!
    (the complete digraph).  Derangements are the complete assignments that
    never took the fixed-point branch.
    """
    n = g.n
    if n > BRUTEFORCE_MAX_N:
        raise ValueError(f"brute force limited to n <= {BRUTEFORCE_MAX_N}, got {n}")
    out_bits: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        out_bits[u].append(1 << v)

    def extend(v: int, taken: int) -> tuple[int, int]:
        # (derangements, permutations) of vertices v..n-1 onto the free slots
        if v == n:
            return 1, 1
        der = per = 0
        if not taken >> v & 1:
            per = extend(v + 1, taken | 1 << v)[1]
        for b in out_bits[v]:
            if not taken & b:
                d, p = extend(v + 1, taken | b)
                der += d
                per += p
        return der, per

    der, per = extend(0, 0)
    return counting.CountPair(derangements=der, permutations=per)


def closed_form_counts(k: int, ell: int) -> counting.CountPair:
    """Exact counts for the full blow-up: (k!)^ell derangements and
    sum_i (C(k,i) (k-i)!)^ell permutations."""
    if k < 1 or ell < 2:
        raise ValueError("need k >= 1 and ell >= 2")
    der = math.factorial(k) ** ell
    per = sum(
        (math.comb(k, i) * math.factorial(k - i)) ** ell for i in range(k + 1)
    )
    return counting.CountPair(derangements=der, permutations=per)


def falling_ratio_exact(a: int, b: int, x: int) -> Fraction:
    """(b)_x / (a)_x as an exact rational, from the falling factorials
    themselves (math.perm), reduced once; equals C(a-x, b-x) / C(a, b)."""
    if not (0 <= x <= b <= a):
        raise ValueError(f"need 0 <= x <= b <= a, got a={a}, b={b}, x={x}")
    return Fraction(math.perm(b, x), math.perm(a, x))


def falling_ratio_asymptotic(a: int, b: int, x: int) -> float:
    """Explicit part of the asymptotic form (b/a)^x exp{(x^2/2)(1/a - 1/b)}.

    Diagnostic companion to `falling_ratio_exact`; the dropped
    correction is O(x^3/b^2 + x/b).
    """
    if not (0 <= x <= b <= a) or b <= 0:
        raise ValueError(f"need 0 <= x <= b <= a with b > 0, got a={a}, b={b}, x={x}")
    return (b / a) ** x * math.exp((x * x / 2.0) * (1.0 / a - 1.0 / b))


def enumerate_subgraphs(
    base: digraph.SampledSubgraph, m: int
) -> Iterator[digraph.SampledSubgraph]:
    """Yield every m-edge subgraph of the blow-up of base's shape exactly
    once (brute-force oracle); reads only base.k and base.ell."""
    total = digraph.blowup_edge_count(base.k, base.ell)
    if not (0 <= m <= total):
        raise ValueError(f"m must be in [0, {total}], got {m}")
    count = math.comb(total, m)
    if count > ENUMERATION_CAP:
        raise ValueError(f"C({total}, {m}) = {count} exceeds cap {ENUMERATION_CAP}")
    for combo in itertools.combinations(range(total), m):
        yield digraph.SampledSubgraph.from_edge_indices(base, combo)


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


def h_bruteforce(a: int, b: int) -> int:
    """Perfect matchings of K_{a,a} avoiding the fixed matching {i -> i: i < b}."""
    return sum(
        1
        for sigma in itertools.permutations(range(a))
        if all(sigma[i] != i for i in range(b))
    )


def h_window_error(a: int) -> float:
    """max_b |e h(a,b)/a! - 1| over the window a - a^(1/10) <= b <= a, h
    from row a of the production table `series.h_table`.

    The window always holds b = a - 1, where the deviation is about 1/a
    (0.0999..., 0.05 and 0.025 at a = 10, 20, 40), so it decays like 1/a.
    Exact rationals: e lies between s = sum_{j<=60} 1/j! and s + 1/(60! 60),
    and as h(a, b) <= a!, each deviation moves by at most that width across
    the bracket.  Raises ValueError unless the maxima at both ends of the
    bracket round to the same float, which is returned.
    """
    lo = math.ceil(a - a ** (1 / 10))
    fact = math.factorial(a)
    hs = series.h_table(a)[a][lo:]
    n, nfact = 60, math.factorial(60)
    s = Fraction(sum(nfact // math.factorial(j) for j in range(n + 1)), nfact)
    ends = {
        float(max(abs(e * h / fact - 1) for h in hs))
        for e in (s, s + Fraction(1, nfact * n))
    }
    if len(ends) != 1:
        raise ValueError(f"h_window_error({a}): the bracket on e does not fix the float")
    return ends.pop()


def exact_law(k: int, ell: int, m: int) -> Counter[counting.CountPair]:
    """The law of (X, Y) over every m-edge subgraph of the (k, ell) blow-up:
    each CountPair maps to the number of subgraphs that have it, each
    counted by brute force (count_bruteforce, so n = k*ell <= 10)."""
    base = digraph.build_blowup(k, ell)
    return Counter(
        count_bruteforce(digraph.to_general(g)) for g in enumerate_subgraphs(base, m)
    )
