"""Parameter selection: from a target ratio r in (0, 1/2) to a concrete
construction (ell, p, k, m) with f_ell(1/p) = 1/r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .series import f_eval

DEFAULT_TOL = 1e-10
BISECTION_MAX_ITER = 200

#: Series tolerance used inside the solver, well below the root tolerance.
_SERIES_TOL_FACTOR = 1e-3


@dataclass(frozen=True)
class ConstructionPlan:
    """Solved parameters tying a target ratio to a random graph model."""

    r: float
    ell: int
    p: float
    x: float
    k: int
    m: int

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "r": self.r,
            "ell": self.ell,
            "p": self.p,
            "x": self.x,
            "k": self.k,
            "m": self.m,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ConstructionPlan":
        return cls(r=d["r"], ell=d["ell"], p=d["p"], x=d["x"], k=d["k"], m=d["m"])


def choose_ell(r: float) -> int:
    """Minimal ell >= 2 with f_ell(1) < 1/r.

    Exists for every r < 1/2 because f_ell(1) <= 2 + 1/(2^ell - 1) -> 2.
    """
    if not 0 < r < 0.5:
        raise ValueError(f"r must lie in (0, 1/2), got {r}")
    target = 1.0 / r
    ell = 2
    while f_eval(ell, 1.0, tol=1e-13).value >= target:
        ell += 1
    return ell


def solve_p(r: float, ell: int, tol: float = DEFAULT_TOL) -> tuple[float, float]:
    """Find x > 1 with f_ell(x) = 1/r by bisection; return (p, x) with p = 1/x.

    The root is accepted once |f_ell(x) - 1/r| <= tol/r: the tolerance is
    relative, since 1/r is unbounded as r -> 0.

    Requires f_ell(1) < 1/r so the intermediate value theorem applies on
    (1, infinity); f_ell is strictly increasing there.
    """
    if not 0 < r < 0.5:
        raise ValueError(f"r must lie in (0, 1/2), got {r}")
    if tol <= 0:
        raise ValueError("tol must be positive")
    target = 1.0 / r
    series_tol = tol * _SERIES_TOL_FACTOR

    def f(x: float) -> float:
        return f_eval(ell, x, tol=series_tol).value

    if f(1.0) >= target:
        raise ValueError(
            f"f_{ell}(1) = {f(1.0):.6f} >= 1/r = {target:.6f}; "
            "no root in (1, inf) -- increase ell"
        )
    lo, hi = 1.0, 2.0
    while f(hi) <= target:
        hi *= 2.0
    x = hi
    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm - target) <= tol * target:
            x = mid
            break
        if fm < target:
            lo = mid
        else:
            hi = mid
    else:
        x = 0.5 * (lo + hi)
        if abs(f(x) - target) > tol * target:
            raise ValueError(f"bisection failed to reach tol={tol} for r={r}")
    return 1.0 / x, x


def plan(r: float, k: int, tol: float = DEFAULT_TOL) -> ConstructionPlan:
    """Assemble a full construction plan for ratio r at part size k."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    ell = choose_ell(r)
    p, x = solve_p(r, ell, tol=tol)
    total = k * k * ell
    m = math.floor(p * total + 0.5)  # nearest integer, ties up
    if m <= 0 or m >= total:
        raise ValueError(
            f"rounded edge count m={m} is degenerate for k={k}, ell={ell}, p={p}"
        )
    return ConstructionPlan(r=r, ell=ell, p=p, x=x, k=k, m=m)
