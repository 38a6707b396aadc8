"""Parameter selection: from a target ratio r in (0, 1/2) to a concrete
construction (ell, p, k, m) with f_ell(1/p) = 1/r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .digraph import blowup_edge_count, report_json
from .series import f_eval


@dataclass(frozen=True)
class ConstructionPlan:
    """Solved parameters tying a target ratio to a random graph model; k and
    m are None for (ell, p) solved without a part size."""

    r: float
    ell: int
    p: float
    x: float
    k: int | None
    m: int | None

    def to_json_dict(self) -> dict:
        return report_json(self)


def _target(r: float) -> float:
    """1/r, for r in (0, 1/2) whose reciprocal is a finite float."""
    if not 0 < r < 0.5:
        raise ValueError(f"r must lie in (0, 1/2), got {r}")
    if not math.isfinite(1.0 / r):
        raise ValueError(f"1/r is not a finite float for r={r}")
    return 1.0 / r


def choose_ell(r: float) -> int:
    """Minimal ell >= 2 with f_ell(1) < 1/r.

    Exists for every r < 1/2 because f_ell(1) <= 2 + 1/(2^ell - 1) -> 2.
    """
    target = _target(r)
    ell = 2
    while f_eval(ell, 1.0).value >= target:
        ell += 1
    return ell


def solve_p(r: float, ell: int) -> tuple[float, float]:
    """Find x > 1 with f_ell(x) = 1/r to float precision; return (p, x), p = 1/x.

    With f = f_eval(ell, .).value, x is where bisection leaves adjacent
    floats: f(x) >= 1/r > f(nextafter(x, 0)).  Doubling brackets the root
    first.  A sum past the float range counts as above 1/r, so tiny r get
    their root even where the bracket overshoots into overflow.

    Requires f_ell(1) < 1/r so the intermediate value theorem applies on
    (1, infinity); f_ell is strictly increasing there.
    """
    target = _target(r)
    f1 = f_eval(ell, 1.0).value
    if f1 >= target:
        raise ValueError(
            f"f_{ell}(1) = {f1:.6f} >= 1/r = {target:.6f}; "
            "no root in (1, inf) -- increase ell"
        )

    def above(x: float) -> bool:
        try:
            return f_eval(ell, x).value >= target
        except ValueError:  # overflow: above every finite target
            return True

    lo, hi = 1.0, 2.0
    while not above(hi):
        lo, hi = hi, 2.0 * hi
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if above(mid):
            hi = mid
        else:
            lo = mid
    return 1.0 / hi, hi


def plan(r: float, k: int | None = None) -> ConstructionPlan:
    """Assemble a full construction plan for ratio r at part size k; without
    k, only ell and p are solved."""
    if k is not None and k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    ell = choose_ell(r)
    p, x = solve_p(r, ell)
    if k is None:
        return ConstructionPlan(r=r, ell=ell, p=p, x=x, k=None, m=None)
    total = blowup_edge_count(k, ell)
    a, b = p.as_integer_ratio()
    # nearest integer to p*total, ties up; in integers, so _smallest_k is exact
    m = (2 * a * total + b) // (2 * b)
    if not 0 < m < total:
        k_min = _smallest_k(a, b, ell)
        way_out = f"k >= {k_min} gives 0 < m < k^2*ell" if k_min else "no k works: p rounds to 1"
        raise ValueError(
            f"rounded edge count m={m} is degenerate for k={k}, ell={ell}, p={p}; {way_out}"
        )
    return ConstructionPlan(r=r, ell=ell, p=p, x=x, k=k, m=m)


def _smallest_k(a: int, b: int, ell: int) -> int | None:
    """Smallest k >= 2 whose rounded edge count m lies in (0, k^2*ell) for
    p = a/b, or None when p = 1 and no k has one.

    With T = k^2*ell, 0 < m < T holds iff p*T >= 1/2 and (1-p)*T > 1/2.
    Both grow with T, so every larger k works too.
    """
    if a >= b:
        return None
    t_min = max(-(-b // (2 * a)), b // (2 * (b - a)) + 1)
    return max(2, math.isqrt(-(-t_min // ell) - 1) + 1)  # ceil(sqrt(ceil(t_min/ell)))
