import json

import pytest

from dpratio.params import ConstructionPlan, choose_ell, plan, solve_p
from dpratio.series import f_eval


def test_choose_ell_examples():
    assert choose_ell(0.3) == 2  # f_2(1) ~ 2.2796 < 10/3
    assert choose_ell(0.45) == 3  # f_2(1) >= 1/0.45 ~ 2.2222, f_3(1) < it


def test_choose_ell_minimality():
    for r in (0.05, 0.2, 0.35, 0.44, 0.47, 0.49, 0.499):
        ell = choose_ell(r)
        assert f_eval(ell, 1.0, 1e-13).value < 1 / r
        if ell > 2:
            assert f_eval(ell - 1, 1.0, 1e-13).value >= 1 / r


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
    f1 = f_eval(ell, 1.0, 1e-14).value
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


def test_plan_tiny_ratio_raises_instead_of_hanging():
    # bracketing the root of f_2(x) = 1e300 doubles x up to 512, where
    # f_2's terms overflow a float
    with pytest.raises(ValueError):
        plan(1e-300, 8)


def test_plan_small_ratios_meet_relative_tolerance():
    # 1/r = 1e20 and 1e100 lie far beyond an absolute tolerance of 1e-10
    for r in (1e-20, 1e-100):
        cp = plan(r, 8)
        assert abs(f_eval(cp.ell, 1.0 / cp.p).value * r - 1.0) <= 1e-9


def test_plan_json_roundtrip():
    cp = plan(0.25, 6)
    d = cp.to_json_dict()
    assert d["schema"] == 1
    assert ConstructionPlan.from_json_dict(json.loads(json.dumps(d))) == cp
