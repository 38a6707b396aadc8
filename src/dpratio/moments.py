"""Exact (rational) and asymptotic moments of the derangement count X and
permutation count Y under uniform m-edge sampling of the blow-up.

Every exact moment is a weighted sum of P[x] = C(T-x, m-x) / C(T, m), the
probability that x specified edges all survive, with T = k^2*ell edges in
the blow-up.  `_edge_expectation` takes it as one integer sum over the common
denominator C(T, m), from one binomial walked down in x, and reduces a single
Fraction at the end.  The second moments share one pair sum over the fixed
vertices (i, j) per part of two permutations (`_pair_weights`), which
leaves out the pairs whose unions all have more than m edges; E[X^2] is
its (0, 0) term.  Sums over layer profiles are coefficients of the ell-th
power of one packed layer polynomial per pair, never enumerations of the
compositions; the powers of a row i add into packed ints that are each
unpacked once, so the dict of weights takes one sum per field of a row.
The forbidden-matching counts h(a, b) of the pair sum come from
`series.h_table`, the one route to them, which the cross-checks hold to the
oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .counting import _field_width, _pack, _unpack
from .digraph import blowup_edge_count, csv_text, report_json
from .params import ConstructionPlan
from .series import f_eval, h_table

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


def _run_fields(gs: list[list[int]], ell: int) -> tuple[int, ...]:
    """Coefficients of sum_d z^(ell*d) (sum_t gs[d][t] z^t)^ell, low first,
    for gs of nonnegative lists not all 0 and ell >= 1: one `pow` per list,
    packed in nb-byte fields and added shifted into one int, unpacked once
    (Kronecker substitution, D. Harvey, J. Symbolic Comput. 2009, section 2).
    No field carries: a coefficient is at most the value at z = 1,
    sum_d sum(gs[d])^ell, which nb-byte fields hold (_field_width)."""
    nb = _field_width(sum(sum(g) ** ell for g in gs))
    row = 0
    for d, g in enumerate(gs):
        row += pow(_pack(g, nb), ell) << (8 * nb * ell * d)
    return _unpack(row, nb, -(-row.bit_length() // (8 * nb)))


#: a run of a row of _pair_weights goes on while each pair's own field
#: width is within this many bytes of its first pair's
_RUN_SLACK_BYTES = 8


def _pair_weights(k: int, ell: int, n: int, m: int) -> dict[int, int]:
    """Weights x -> count of the E[Y^2] pair sum over 0 <= i, j <= n, for
    _edge_expectation at m sampled edges.

    i and j are the fixed vertices per part of the two permutations.  The
    per-layer weight g(t) = C(k-i, t) C(k-t, j) h(a, max(0, a-i-j)), with
    a = k-j-t, counts the ways to share t edges; past t = k - max(i, j) a
    binomial is 0, so g stops there.  The coefficient of
    (sum_t g(t) z^t)^ell at z^b sums over layer profiles with b shared
    edges in total, and scaled by (k!/i!)^ell it weighs a union of
    (2k-i-j)*ell - b edges.

    Row i shifts the power of pair (i, j) by ell*j fields, so field f
    weighs (2k-i)*ell - f edges whatever j is: the powers add into packed
    ints that are each unpacked once (`_run_fields`), and the prefactor
    (k!/i!)^ell multiplies once per field.  A pair's own field width, the
    byte length of sum(g)^ell, falls with j (from 210 bytes to 1 at k = 25,
    ell = 20), and a `pow` at a wider field costs more, so a row packs in
    runs of j at a width each: a run goes on while each pair's own width
    is within _RUN_SLACK_BYTES of its first pair's.

    A pair's permutations have (k-i)*ell and (k-j)*ell edges, so its unions
    have at least (k - min(i, j))*ell, more than m when min(i, j) < k -
    m // ell: those pairs weigh nothing at m, and i and j start at that
    bound.  The kept j form a suffix of each row, so the runs' shifts hold.
    """
    h = h_table(k)
    hs = [[h[a][max(0, a - s)] for a in range(k + 1)] for s in range(2 * n + 1)]  # h(a, a - s)
    comb = [[math.comb(a, b) for b in range(a + 1)] for a in range(k + 1)]
    comb_j = [[comb[k - t][j] for t in range(k - j + 1)] for j in range(n + 1)]  # C(k-t, j)
    weights: dict[int, int] = {}
    kept = range(max(0, k - m // ell), n + 1)
    for i in kept:
        runs: list[tuple[int, int, list[list[int]]]] = []  # (first width, first j, gs)
        for j in kept:
            top_t = k - max(i, j)
            binomials = map(mul, comb[k - i][: top_t + 1], comb_j[j])
            # a = k-j-t runs down from k - j to k - j - top_t
            g = list(map(mul, binomials, reversed(hs[i + j][k - j - top_t : k - j + 1])))
            width = ((sum(g) ** ell).bit_length() + 7) // 8
            if not runs or abs(width - runs[-1][0]) >= _RUN_SLACK_BYTES:
                runs.append((width, j, []))
            runs[-1][2].append(g)
        prefactor = (math.factorial(k) // math.factorial(i)) ** ell
        for _, j0, gs in runs:
            base = (2 * k - i - j0) * ell
            for f, coeff in enumerate(_run_fields(gs, ell)):
                if coeff:
                    weights[base - f] = weights.get(base - f, 0) + prefactor * coeff
    return weights


def check_second_moment_k(k: int) -> None:
    """ValueError when the exact second moments refuse part size k."""
    if k > SECOND_MOMENT_MAX_K:
        raise ValueError(f"ex2/ey2 exact computation limited to k <= {SECOND_MOMENT_MAX_K}")


def second_moment_x_exact(k: int, ell: int, m: int) -> Fraction:
    """E[X^2], exact: the (0, 0) term of the E[Y^2] pair sum (the kernel
    `_pair_weights` with i = j = 0), since a derangement is a permutation
    with no fixed vertex.  Its per-layer weight is g(t) = C(k,t) h(k-t, k-t),
    and the union of a pair of derangements sharing b edges has
    2k*ell - b edges.
    """
    return _edge_expectation(k, ell, m, _pair_weights(k, ell, 0, m))


def second_moment_y_upper(k: int, ell: int, m: int) -> Fraction:
    """Exact-rational upper bound on E[Y^2]: the pair sum over (i, j) =
    fixed vertices per part of each permutation, 0 <= i, j <= k, one packed
    row per i (see _pair_weights), the pairs whose unions all pass m left
    out.
    """
    return _edge_expectation(k, ell, m, _pair_weights(k, ell, k, m))


def moment_report(
    k: int, ell: int, m: int, p: float | None = None, r: float | None = None
) -> MomentReport:
    """All exact and asymptotic moments plus derived concentration numbers."""
    total = blowup_edge_count(k, ell)  # rejects k < 1 and ell < 2 in constant time
    check_second_moment_k(k)
    if p is None:
        p = m / total
    ex = expected_x_exact(k, ell, m)
    ey = expected_y_exact(k, ell, m)
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
    # the second moments last, so that a log past the float range fails before their cost
    ex2 = second_moment_x_exact(k, ell, m)
    ey2 = second_moment_y_upper(k, ell, m)
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
