"""Exact (rational) and asymptotic moments of the derangement count X and
permutation count Y under uniform m-edge sampling of the blow-up.

Every exact moment is a weighted sum of P[x] = C(T-x, m-x) / C(T, m), the
probability that x specified edges all survive, with T = k^2*ell edges in
the blow-up.  `_edge_expectation` takes it as one integer sum over the common
denominator C(T, m) and reduces a single Fraction at the end.  Composition
sums over layer profiles are evaluated as coefficients of ell-fold
self-convolutions, never by enumerating the compositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .params import ConstructionPlan
from .series import f_eval, h_exact

SECOND_MOMENT_MAX_K = 25


@dataclass(frozen=True)
class AsymptoticValue:
    """A positive real stored by its natural log (values overflow floats)."""

    log: float

    def to_float(self) -> float:
        return math.exp(self.log)

    def mantissa_exponent(self) -> tuple[float, int]:
        """Base-10 scientific representation (mantissa, exponent)."""
        log10 = self.log / math.log(10.0)
        exp10 = math.floor(log10)
        return 10.0 ** (log10 - exp10), exp10


@dataclass(frozen=True)
class MomentReport:
    """Exact and asymptotic moment summary for one (r, k, ell, p, m)."""

    k: int
    ell: int
    m: int
    p: float
    r: float | None
    ex: Fraction
    ey: Fraction
    ex2: Fraction
    ey2_upper: Fraction
    ex_asym: AsymptoticValue
    ey_asym: AsymptoticValue
    ratio_exact: Fraction
    x_concentration: float
    y_concentration_bound: float

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "k": self.k,
            "ell": self.ell,
            "m": self.m,
            "p": self.p,
            "r": self.r,
            "ex": _frac_str(self.ex),
            "ey": _frac_str(self.ey),
            "ex2": _frac_str(self.ex2),
            "ey2_upper": _frac_str(self.ey2_upper),
            "ex_asym_log": self.ex_asym.log,
            "ey_asym_log": self.ey_asym.log,
            "ratio_exact": _frac_str(self.ratio_exact),
            "ratio_exact_float": float(self.ratio_exact),
            "x_concentration": self.x_concentration,
            "y_concentration_bound": self.y_concentration_bound,
        }

    CSV_COLUMNS = (
        "r,k,ell,p,m,ratio_exact,ex_float,ey_float,x_concentration,"
        "y_concentration_bound,ex_asym_log,ey_asym_log"
    )

    def to_csv_row(self) -> str:
        return ",".join(
            str(v)
            for v in (
                self.r,
                self.k,
                self.ell,
                self.p,
                self.m,
                float(self.ratio_exact),
                float(self.ex),
                float(self.ey),
                self.x_concentration,
                self.y_concentration_bound,
                self.ex_asym.log,
                self.ey_asym.log,
            )
        )


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _edge_expectation(k: int, ell: int, m: int, weights: dict[int, int]) -> Fraction:
    """sum_x weights[x] * P[x specified edges survive uniform m-edge sampling
    of the k^2*ell blow-up edges], with P[x] = C(T-x, m-x) / C(T, m) and 0
    when x > m."""
    total = k * k * ell
    if not 0 <= m <= total:
        raise ValueError(f"need 0 <= m <= {total}, got m={m}")
    num = sum(w * math.comb(total - x, m - x) for x, w in weights.items() if x <= m)
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


def expected_x_asymptotic(k: int, ell: int, p: float) -> AsymptoticValue:
    """(k!)^ell p^(k*ell) exp{(ell/2)(1 - 1/p)}, carried in log-space."""
    if not 0 < p <= 1:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    log = (
        ell * math.lgamma(k + 1)
        + k * ell * math.log(p)
        + (ell / 2.0) * (1.0 - 1.0 / p)
    )
    return AsymptoticValue(log=log)


def expected_y_asymptotic(k: int, ell: int, p: float) -> AsymptoticValue:
    """The E[X] asymptotic multiplied by f_ell(1/p)."""
    base = expected_x_asymptotic(k, ell, p)
    return AsymptoticValue(log=base.log + math.log(f_eval(ell, 1.0 / p).value))


def _convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] += ai * bj
    return out


def _self_convolve(seq: list[int], times: int) -> list[int]:
    out = [1]
    for _ in range(times):
        out = _convolve(out, seq)
    return out


def second_moment_x_exact(k: int, ell: int, m: int) -> Fraction:
    """E[X^2], exact.

    Pairs of derangements sharing b edges in total, b_c per layer: the
    per-layer weight is g(t) = C(k,t) h(k-t, k-t), and the sum over layer
    profiles with total b is the coefficient of the ell-fold self-convolution
    of g at index b.  The union of the pair has 2k*ell - b edges.
    """
    g = [math.comb(k, t) * h_exact(k - t, k - t) for t in range(k + 1)]
    scale = math.factorial(k) ** ell
    weights = {
        2 * k * ell - b: scale * coeff
        for b, coeff in enumerate(_self_convolve(g, ell))
        if coeff
    }
    return _edge_expectation(k, ell, m, weights)


def second_moment_y_upper(k: int, ell: int, m: int) -> Fraction:
    """Exact-rational upper bound on E[Y^2].

    Sums over (i, j) = fixed vertices per part of each permutation in the
    pair and b = total shared edges; per-layer weight
    C(k-i, t) C(k-t, j) h(k-j-t, k-i-t-2j) with out-of-range binomials
    evaluating to 0 and the h second argument clamped at 0.
    """
    kl = k * ell
    weights: dict[int, int] = {}
    for i in range(k + 1):
        prefactor = (math.factorial(k) // math.factorial(i)) ** ell
        for j in range(k + 1):
            g = []
            for t in range(k + 1):
                c1 = math.comb(k - i, t)
                c2 = math.comb(k - t, j)
                if not c1 or not c2:
                    g.append(0)
                    continue
                a = k - j - t
                b2 = max(0, k - i - t - 2 * j)
                g.append(c1 * c2 * h_exact(a, min(a, b2)))
            if not any(g):
                continue
            for b, coeff in enumerate(_self_convolve(g, ell)):
                if coeff:
                    x = 2 * kl - (i + j) * ell - b
                    weights[x] = weights.get(x, 0) + prefactor * coeff
    return _edge_expectation(k, ell, m, weights)


def moment_report(
    k: int, ell: int, m: int, p: float | None = None, r: float | None = None
) -> MomentReport:
    """All exact and asymptotic moments plus derived concentration numbers."""
    if k > SECOND_MOMENT_MAX_K:
        raise ValueError(f"ex2/ey2 exact computation limited to k <= {SECOND_MOMENT_MAX_K}")
    if p is None:
        p = m / (k * k * ell)
    ex = expected_x_exact(k, ell, m)
    ey = expected_y_exact(k, ell, m)
    ex2 = second_moment_x_exact(k, ell, m)
    ey2 = second_moment_y_upper(k, ell, m)
    ratio = Fraction(ex, ey) if ey else Fraction(0)
    x_conc = float(ex2 / (ex * ex) - 1) if ex else float("nan")
    y_conc = float(ey2 / (ey * ey) - 1) if ey else float("nan")
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
        ex_asym=expected_x_asymptotic(k, ell, p),
        ey_asym=expected_y_asymptotic(k, ell, p),
        ratio_exact=ratio,
        x_concentration=x_conc,
        y_concentration_bound=y_conc,
    )


def moment_report_for_plan(cplan: ConstructionPlan) -> MomentReport:
    return moment_report(cplan.k, cplan.ell, cplan.m, p=cplan.p, r=cplan.r)
