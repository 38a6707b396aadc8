import dataclasses
import math
from fractions import Fraction

import pytest

from dpratio.counting import closed_form_counts
from dpratio.moments import (
    _edge_expectation,
    expected_x_asymptotic,
    expected_x_exact,
    expected_y_asymptotic,
    expected_y_exact,
    moment_report,
    moment_report_for_plan,
    second_moment_x_exact,
    second_moment_y_upper,
)
from dpratio.params import plan
from dpratio.series import f_eval, falling_ratio_exact


def test_edge_expectation_kernel():
    # one weight of 1 at x gives P[x edges survive] = (m)_x / (T)_x, 0 for x > m
    for k, ell in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        total = k * k * ell
        for m in range(total + 1):
            for x in range(total + 1):
                expect = falling_ratio_exact(total, m, x) if x <= m else 0
                assert _edge_expectation(k, ell, m, {x: 1}) == expect
    assert _edge_expectation(2, 2, 6, {4: 1}) == Fraction(360, 1680)
    for k, ell in [(0, 2), (2, 1)]:  # no such blow-up
        with pytest.raises(ValueError, match="must be >="):
            _edge_expectation(k, ell, 0, {0: 1})
    with pytest.raises(ValueError):
        expected_x_exact(2, 2, 9)  # m beyond the edge count
    with pytest.raises(ValueError):
        moment_report(2, 2, -1)


def test_expected_x_small_m_zero():
    assert expected_x_exact(2, 2, 3) == 0


def test_expected_x_spot_value():
    assert expected_x_exact(2, 2, 6) == Fraction(6, 7)


def test_expected_x_full_graph():
    for k, ell in [(2, 2), (3, 2), (2, 3)]:
        assert expected_x_exact(k, ell, k * k * ell) == math.factorial(k) ** ell


def test_expected_y_spot_value():
    assert expected_y_exact(2, 2, 6) == 4


def test_expected_y_empty_and_full():
    for k, ell in [(2, 2), (3, 2), (2, 3)]:
        assert expected_y_exact(k, ell, 0) == 1
        assert (
            expected_y_exact(k, ell, k * k * ell)
            == closed_form_counts(k, ell).permutations
        )


def test_ey_dominates_ex_and_monotone_in_m():
    for k, ell in [(2, 2), (3, 2), (2, 3)]:
        prev = Fraction(-1)
        for m in range(k * k * ell + 1):
            ex = expected_x_exact(k, ell, m)
            ey = expected_y_exact(k, ell, m)
            assert ey >= ex
            assert ex >= prev
            prev = ex


def test_second_moment_x_edge_cases():
    # m < k*ell: no derangement fits
    assert second_moment_x_exact(2, 2, 3) == 0
    # full graph: X is constant (k!)^ell
    for k, ell in [(2, 2), (3, 2), (2, 3)]:
        assert (
            second_moment_x_exact(k, ell, k * k * ell)
            == (math.factorial(k) ** ell) ** 2
        )


def test_second_moment_x_cauchy_schwarz():
    for k, ell in [(2, 2), (3, 2)]:
        for m in range(k * k * ell + 1):
            ex = expected_x_exact(k, ell, m)
            ex2 = second_moment_x_exact(k, ell, m)
            assert ex2 >= ex * ex
            if ex > 0:
                assert ex2 >= ex * max(ex, 1)


def test_second_moment_y_upper_basics():
    # m = 0: only the identity, E[Y^2] = 1
    for k, ell in [(2, 2), (3, 2)]:
        assert second_moment_y_upper(k, ell, 0) >= 1
        for m in range(k * k * ell + 1):
            ey = expected_y_exact(k, ell, m)
            assert second_moment_y_upper(k, ell, m) >= ey * ey


def test_asymptotic_x_matches_full_graph():
    for k, ell in [(4, 2), (5, 3)]:
        asym = expected_x_asymptotic(k, ell, 1.0)
        assert math.exp(asym) == pytest.approx(float(math.factorial(k) ** ell))


def test_asymptotic_monotone_in_p():
    vals = [expected_x_asymptotic(5, 2, p) for p in (0.3, 0.5, 0.7, 0.9)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_asymptotic_xy_ratio_is_f():
    for r, k in [(0.3, 6), (0.2, 5)]:
        cp = plan(r, k)
        lx = expected_x_asymptotic(cp.k, cp.ell, cp.p)
        ly = expected_y_asymptotic(cp.k, cp.ell, cp.p)
        f = f_eval(cp.ell, 1.0 / cp.p).value
        assert math.exp(ly - lx) == pytest.approx(f, rel=1e-9)
        # by construction f_ell(1/p) = 1/r
        assert math.exp(lx - ly) == pytest.approx(r, rel=1e-8)


def test_exact_vs_asymptotic_converges():
    for moment, asym in [
        (expected_x_exact, expected_x_asymptotic),
        (expected_y_exact, expected_y_asymptotic),
    ]:
        errs = []
        for k in (4, 8, 16):
            cp = plan(0.3, k)
            exact = moment(cp.k, cp.ell, cp.m)
            log_exact = math.log(exact.numerator) - math.log(exact.denominator)
            # compare at the realized density: rounding m to an integer
            # perturbs p non-monotonically in k, which would mask the decay
            p_eff = cp.m / (cp.k * cp.k * cp.ell)
            errs.append(abs(math.exp(log_exact - asym(cp.k, cp.ell, p_eff)) - 1.0))
        assert errs[0] > errs[1] > errs[2]


def test_moment_report_fields():
    cp = plan(0.3, 6)
    rep = moment_report_for_plan(cp)
    assert rep.ratio_exact == expected_x_exact(cp.k, cp.ell, cp.m) / expected_y_exact(
        cp.k, cp.ell, cp.m
    )
    assert rep.x_concentration >= 0
    assert rep.y_concentration_bound >= 0
    assert rep.ex >= 0 and rep.ey >= rep.ex
    d = rep.to_json_dict()
    assert d["schema"] == 1
    assert list(d) == ["schema", *vars(rep)]
    header, row = rep.to_csv().splitlines()
    assert header == rep.CSV_COLUMNS
    assert len(row.split(",")) == len(rep.CSV_COLUMNS.split(","))


def test_float_past_range_raises_value_error():
    # `expect --k 3 --ell 400 --m 3600 --format csv` has E[X] = 6^400; the
    # report is built here from a small one, as that run takes seconds
    rep = dataclasses.replace(moment_report(2, 2, 6), ex=Fraction(6**400))
    rep.to_json_dict()  # JSON writes the exact value, no float
    with pytest.raises(ValueError, match="ex_float is past the float range"):
        rep.to_csv()


def test_moment_report_budget():
    with pytest.raises(ValueError):
        moment_report(30, 2, 100)


def test_report_trend_in_k():
    errs = []
    concs = []
    for k in (6, 12, 24):
        cp = plan(0.3, k)
        rep = moment_report_for_plan(cp)
        errs.append(abs(float(rep.ratio_exact) - 0.3))
        concs.append(rep.x_concentration)
    assert errs[0] > errs[1] > errs[2]
    assert concs[0] > concs[1] > concs[2]
