"""Exact (rational) and asymptotic moments of the derangement count X and
permutation count Y under uniform m-edge sampling of the blow-up.

Every exact moment is a weighted sum of P[x] = C(T-x, m-x) / C(T, m), the
probability that x specified edges all survive, with T = k^2*ell edges in
the blow-up.  `_edge_expectation` takes it as one integer sum over the common
denominator C(T, m), from one binomial walked down in x, and reduces a single
Fraction at the end.  The second moments share one pair sum over the fixed
vertices (i, j) per part of two permutations (`_pair_weights`); E[X^2] is
its (0, 0) term.  Sums over layer profiles are coefficients of the ell-th
power of one packed layer polynomial, never enumerations of the compositions.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .digraph import blowup_edge_count, csv_text, report_json
from .params import ConstructionPlan
from .series import f_eval, h_exact

SECOND_MOMENT_MAX_K = 25


@dataclass(frozen=True)
class MomentReport:
    """Exact and asymptotic moment summary for one (r, k, ell, p, m); None
    marks what does not exist (r without a plan, the logs at p = 0, the X
    concentration when E[X] = 0)."""

    k: int
    ell: int
    m: int
    p: float
    r: float | None
    ex: Fraction
    ey: Fraction
    ex2: Fraction
    ey2_upper: Fraction
    ex_asym_log: float | None  # natural logs: the values overflow floats
    ey_asym_log: float | None
    ratio_exact: Fraction
    ratio_exact_float: float
    x_concentration: float | None
    y_concentration_bound: float

    CSV_COLUMNS = (
        "r,k,ell,p,m,ratio_exact,ex_float,ey_float,x_concentration,"
        "y_concentration_bound,ex_asym_log,ey_asym_log"
    )

    def to_json_dict(self) -> dict:
        return report_json(self)

    def to_csv(self) -> str:
        """CSV_COLUMNS and one row; the ratio and the expectations as floats."""
        row = {
            **vars(self),
            "ratio_exact": self.ratio_exact_float,
            "ex_float": _exact_float("ex_float", self.ex),
            "ey_float": _exact_float("ey_float", self.ey),
        }
        return csv_text(self.CSV_COLUMNS, [row])


def _exact_float(name: str, q: Fraction) -> float:
    """q as a float; ValueError naming the report field when q is past the float range."""
    try:
        return float(q)
    except OverflowError:
        raise ValueError(f"{name} is past the float range (|value| > 1.8e308)") from None


def _edge_expectation(k: int, ell: int, m: int, weights: dict[int, int]) -> Fraction:
    """sum_x weights[x] * P[x specified edges survive uniform m-edge sampling
    of the k^2*ell blow-up edges], with P[x] = C(T-x, m-x) / C(T, m) and 0
    when x > m.

    One binomial at the largest x <= m; below it, C(T-x, m-x) =
    C(T-x-1, m-x-1) * (T-x) / (m-x) walks x down with exact divisions."""
    total = blowup_edge_count(k, ell)
    if not 0 <= m <= total:
        raise ValueError(f"need 0 <= m <= {total}, got m={m}")
    xs = [x for x in weights if x <= m]
    num = 0
    if xs:
        top = max(xs)
        c = math.comb(total - top, m - top)
        for x in range(top, min(xs) - 1, -1):
            if x < top:
                c = c * (total - x) // (m - x)
            num += weights.get(x, 0) * c
    return Fraction(num, math.comb(total, m))


def expected_x_exact(k: int, ell: int, m: int) -> Fraction:
    """E[X] = (k!)^ell * P[k*ell specified edges survive]."""
    return _edge_expectation(k, ell, m, {k * ell: math.factorial(k) ** ell})


def expected_y_exact(k: int, ell: int, m: int) -> Fraction:
    """E[Y] = sum_i (C(k,i)(k-i)!)^ell * P[(k-i)*ell specified edges survive]."""
    weights = {
        (k - i) * ell: (math.comb(k, i) * math.factorial(k - i)) ** ell
        for i in range(k + 1)
    }
    return _edge_expectation(k, ell, m, weights)


def expected_x_asymptotic(k: int, ell: int, p: float) -> float:
    """Natural log of (k!)^ell p^(k*ell) exp{(ell/2)(1 - 1/p)}."""
    if not 0 < p <= 1:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    return (
        ell * math.lgamma(k + 1)
        + k * ell * math.log(p)
        + (ell / 2.0) * (1.0 - 1.0 / p)
    )


def expected_y_asymptotic(k: int, ell: int, p: float) -> float:
    """Natural log of the E[X] asymptotic multiplied by f_ell(1/p)."""
    return expected_x_asymptotic(k, ell, p) + math.log(f_eval(ell, 1.0 / p).value)


def _poly_power(coeffs: list[int], ell: int) -> list[int]:
    """Coefficients of (sum_t coeffs[t] z^t)^ell, coeffs >= 0 not all 0 and
    ell >= 1, from one `pow` of the coefficients packed in nb-byte fields
    (Kronecker substitution).  No field carries: a coefficient of the power
    is at most its value at z = 1, sum(coeffs)^ell, whose byte length is nb."""
    nb = ((sum(coeffs) ** ell).bit_length() + 7) // 8
    packed = int.from_bytes(b"".join(c.to_bytes(nb, "little") for c in coeffs), "little")
    raw = pow(packed, ell).to_bytes(nb * (ell * (len(coeffs) - 1) + 1), "little")
    return [int.from_bytes(raw[s : s + nb], "little") for s in range(0, len(raw), nb)]


def _pair_weights(k: int, ell: int, pairs) -> dict[int, int]:
    """Weights x -> count of the E[Y^2] pair sum over the (i, j) in pairs,
    for _edge_expectation.

    i and j are the fixed vertices per part of the two permutations.  The
    per-layer weight g(t) = C(k-i, t) C(k-t, j) h(k-j-t, k-i-t-2j) counts
    the ways to share t edges (out-of-range binomials are 0, the second h
    argument is clamped to [0, k-j-t]).  Each g(t) is a nonnegative count,
    so `_poly_power` takes (sum_t g(t) z^t)^ell exactly, with no field
    carry; its coefficient at z^b sums over layer profiles with b shared
    edges in total, and scaled by (k!/i!)^ell it weighs a union of
    (2k-i-j)*ell - b edges.
    """
    # all (i, j, t) terms ask for about (k + 1)^2 distinct h(a, b): each once
    h = functools.cache(h_exact)
    weights: dict[int, int] = {}
    for i, j in pairs:
        g = []
        for t in range(k + 1):
            c = math.comb(k - i, t) * math.comb(k - t, j)
            a = k - j - t
            g.append(c * h(a, min(a, max(0, k - i - t - 2 * j))) if c else 0)
        prefactor = (math.factorial(k) // math.factorial(i)) ** ell
        shift = (2 * k - i - j) * ell
        for b, coeff in enumerate(_poly_power(g, ell)):
            if coeff:
                weights[shift - b] = weights.get(shift - b, 0) + prefactor * coeff
    return weights


def second_moment_x_exact(k: int, ell: int, m: int) -> Fraction:
    """E[X^2], exact: the (0, 0) term of the E[Y^2] pair sum, since a
    derangement is a permutation with no fixed vertex.  Its per-layer
    weight is g(t) = C(k,t) h(k-t, k-t), and the union of a pair of
    derangements sharing b edges has 2k*ell - b edges.
    """
    return _edge_expectation(k, ell, m, _pair_weights(k, ell, [(0, 0)]))


def second_moment_y_upper(k: int, ell: int, m: int) -> Fraction:
    """Exact-rational upper bound on E[Y^2]: the pair sum over (i, j) =
    fixed vertices per part of each permutation (see _pair_weights).
    """
    # lazy: a list of the (k + 1)^2 tuples, made up front, measured about 5%
    # slower for a fresh `expect --r 0.45 --k 18` (more garbage collection)
    pairs = itertools.product(range(k + 1), repeat=2)
    return _edge_expectation(k, ell, m, _pair_weights(k, ell, pairs))


def moment_report(
    k: int, ell: int, m: int, p: float | None = None, r: float | None = None
) -> MomentReport:
    """All exact and asymptotic moments plus derived concentration numbers."""
    blowup_edge_count(k, ell)  # rejects k < 1 and ell < 2 in constant time
    if k > SECOND_MOMENT_MAX_K:
        raise ValueError(f"ex2/ey2 exact computation limited to k <= {SECOND_MOMENT_MAX_K}")
    if p is None:
        p = m / (k * k * ell)
    ex = expected_x_exact(k, ell, m)
    ey = expected_y_exact(k, ell, m)
    ex2 = second_moment_x_exact(k, ell, m)
    ey2 = second_moment_y_upper(k, ell, m)
    ratio = ex / ey
    ex_asym_log = ey_asym_log = None
    if p:
        ex_asym_log = expected_x_asymptotic(k, ell, p)  # refuses a p outside (0, 1]
        try:
            ey_asym_log = expected_y_asymptotic(k, ell, p)
        except ValueError:  # f_eval's partial sum of f_ell(1/p) left the float range
            raise ValueError(
                f"ey_asym_log is past the float range (f_{ell}(1/p) > 1.8e308 at p = {p})"
            ) from None
    return MomentReport(
        k=k,
        ell=ell,
        m=m,
        p=p,
        r=r,
        ex=ex,
        ey=ey,
        ex2=ex2,
        ey2_upper=ey2,
        ex_asym_log=ex_asym_log,
        ey_asym_log=ey_asym_log,
        ratio_exact=ratio,
        ratio_exact_float=_exact_float("ratio_exact_float", ratio),
        x_concentration=_exact_float("x_concentration", ex2 / (ex * ex) - 1) if ex else None,
        y_concentration_bound=_exact_float("y_concentration_bound", ey2 / (ey * ey) - 1),
    )


def moment_report_for_plan(cplan: ConstructionPlan) -> MomentReport:
    return moment_report(cplan.k, cplan.ell, cplan.m, p=cplan.p, r=cplan.r)
