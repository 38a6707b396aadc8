import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpratio import params
from dpratio.params import choose_ell, plan, solve_p
from dpratio.series import f_eval


def test_choose_ell_examples():
    assert choose_ell(0.3) == 2  # f_2(1) ~ 2.2796 < 10/3
    assert choose_ell(0.45) == 3  # f_2(1) >= 1/0.45 ~ 2.2222, f_3(1) < it


def test_choose_ell_minimality():
    for r in (0.05, 0.2, 0.35, 0.44, 0.47, 0.49, 0.499):
        ell = choose_ell(r)
        assert f_eval(ell, 1.0).value < 1 / r
        if ell > 2:
            assert f_eval(ell - 1, 1.0).value >= 1 / r


def test_choose_ell_rejects():
    for r in (0.0, 0.5, -0.1, 0.7):
        with pytest.raises(ValueError):
            choose_ell(r)


def test_solve_p_monotone_in_target():
    # larger 1/r gives larger root x at fixed ell
    xs = [solve_p(r, 4)[1] for r in (0.4, 0.3, 0.2, 0.1)]
    assert all(a < b for a, b in zip(xs, xs[1:]))


def test_solve_p_requires_ivt_hypothesis():
    # f_2(1) ~ 2.2796 >= 1/0.45, so ell=2 has no root beyond 1
    with pytest.raises(ValueError):
        solve_p(0.45, 2)


def test_solve_p_near_boundary():
    # r just below 1/f_ell(1) pushes the root toward 1 (p toward 1)
    ell = 2
    f1 = f_eval(ell, 1.0).value
    r = 1 / (f1 + 1e-6)
    p, x = solve_p(r, ell)
    assert x < 1.01
    assert p > 0.99


def test_plan_assembles():
    cp = plan(0.3, 8)
    assert cp.ell == 2
    assert cp.k == 8
    assert 0 < cp.p < 1
    assert cp.m == round(cp.p * 128)
    assert 0 < cp.m < 128
    assert abs(cp.m / (8 * 8 * cp.ell) - cp.p) <= 1 / (2 * 8 * 8 * cp.ell)


def test_plan_rejects():
    with pytest.raises(ValueError):
        plan(0.5, 8)
    with pytest.raises(ValueError):
        plan(0.3, 1)
    with pytest.raises(ValueError, match="1/r is not a finite float"):
        plan(1e-320, 8)


@pytest.mark.parametrize("r, k, k_min", [(0.49, 7, 8), (0.45, 2, 3), (0.4999, 25, 57)])
def test_plan_degenerate_m_names_smallest_k(r, k, k_min):
    with pytest.raises(ValueError, match=rf"k >= {k_min} gives 0 < m"):
        plan(r, k)
    cp = plan(r, k_min)
    assert 0 < cp.m < k_min * k_min * cp.ell
    with pytest.raises(ValueError):
        plan(r, k_min - 1)


def test_plan_p_one_says_no_k_works(monkeypatch):
    monkeypatch.setattr(params, "solve_p", lambda r, ell: (1.0, 1.0))
    with pytest.raises(ValueError, match="no k works"):
        plan(0.3, 8)


def above(ell, x, r):
    """f_ell(x) >= 1/r, counting a sum past the float range as above."""
    try:
        return f_eval(ell, x).value >= 1 / r
    except ValueError:
        return True


def test_plan_tiny_ratio_raises_instead_of_hanging():
    # bracketing the root of f_2(x) = 1e300 doubles x up to 512, where the
    # sum overflows a float; the root x ~ 347.48 is still found, and only
    # the rounded m = 0 at k = 8 is refused
    with pytest.raises(ValueError, match="k >= 10"):
        plan(1e-300, 8)
    p, x = solve_p(1e-300, 2)
    assert p == 1 / x
    assert f_eval(2, x).value >= 1e300 > f_eval(2, math.nextafter(x, 0)).value
    assert plan(1e-300, 10).m == 1


@settings(max_examples=100, deadline=500)
@given(log_r=st.floats(math.log(1e-300), math.log(0.5), exclude_max=True), k=st.integers(2, 60))
def test_plan_returns_root_or_value_error(log_r, k):
    # over the whole domain: a plan whose x brackets the root to adjacent
    # floats, or a ValueError; never a hang or another exception
    r = math.exp(log_r)
    try:
        cp = plan(r, k)
    except ValueError:
        return
    assert above(cp.ell, cp.x, r)
    assert not above(cp.ell, math.nextafter(cp.x, 0), r)


def test_plan_small_ratios_meet_relative_tolerance():
    # a relative residual: f near 1e20 or 1e100 holds about 16 significant digits
    for r in (1e-20, 1e-100):
        cp = plan(r, 8)
        assert abs(f_eval(cp.ell, 1.0 / cp.p).value * r - 1.0) <= 1e-9


def test_plan_json_roundtrip():
    cp = plan(0.25, 6)
    d = cp.to_json_dict()
    assert json.loads(json.dumps(d)) == {"schema": 1, **dataclasses.asdict(cp)}
