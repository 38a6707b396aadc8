import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dpratio.oracles import h_bruteforce
from dpratio.series import (
    edge_prob_exact,
    f_at_one_bounds,
    f_eval,
    falling_ratio_asymptotic,
    falling_ratio_exact,
    h_asymptotic,
    h_exact,
)


def test_f_eval_at_zero():
    for ell in (1, 2, 5):
        sv = f_eval(ell, 0.0, 1e-12)
        assert sv.value == 1.0


def test_f1_is_exp():
    sv = f_eval(1, 1.0, 1e-12)
    assert abs(sv.value - math.e) <= 1e-12
    assert sv.tail_bound <= 1e-12
    sv = f_eval(1, 2.5, 1e-12)
    assert abs(sv.value - math.exp(2.5)) <= 1e-10


def test_f2_at_one():
    # sum of 1/(i!)^2, cross-checked in 50-digit arithmetic
    with mpmath.workdps(50):
        ref = float(mpmath.nsum(lambda i: 1 / mpmath.factorial(i) ** 2, [0, mpmath.inf]))
    sv = f_eval(2, 1.0, 1e-12)
    assert abs(sv.value - ref) <= 1e-12
    assert abs(sv.value - 2.279585302) <= 1e-9


def test_f_eval_rejects_bad_args():
    with pytest.raises(ValueError):
        f_eval(2, -1.0)
    with pytest.raises(ValueError):
        f_eval(0, 1.0)
    with pytest.raises(ValueError):
        f_eval(2, 1.0, tol=0.0)


def test_f_eval_overflow_raises():
    # terms overflow to inf long before they would drop below tol
    with pytest.raises(ValueError):
        f_eval(2, 400.0)
    with pytest.raises(ValueError):
        f_eval(200, 400.0)
    with pytest.raises(ValueError):
        f_eval(2, float("nan"))


def test_f_tail_bound_honest():
    # tail_bound dominates the truncation error against a longer evaluation
    for ell in (1, 2, 3):
        for x in (0.5, 1.0, 2.0, 4.0):
            coarse = f_eval(ell, x, 1e-6)
            fine = f_eval(ell, x, 1e-14)
            assert abs(coarse.value - fine.value) <= coarse.tail_bound + 1e-14


def test_f_monotone_in_x():
    for ell in (1, 2, 4):
        vals = [f_eval(ell, x, 1e-12).value for x in (0.0, 0.3, 1.0, 1.7, 3.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_f_at_one_bounds():
    assert f_at_one_bounds(1) == (2, 3)
    assert f_at_one_bounds(5) == (2, Fraction(2) + Fraction(1, 31))
    for ell in range(1, 13):
        lo, hi = f_at_one_bounds(ell)
        v = f_eval(ell, 1.0, 1e-13).value
        assert float(lo) <= v <= float(hi) + 1e-13


def test_h_exact_basics():
    for a in range(8):
        assert h_exact(a, 0) == math.factorial(a)
    assert h_exact(2, 1) == 1
    assert h_exact(4, 4) == 9  # derangement number of 4


def test_h_exact_bounds():
    for a in range(61):
        for b in range(a + 1):
            v = h_exact(a, b)
            assert 0 <= v <= math.factorial(a)


def test_h_exact_matching_oracle():
    for a in range(8):
        for b in range(a + 1):
            assert h_exact(a, b) == h_bruteforce(a, b)


def test_h_exact_rejects():
    with pytest.raises(ValueError):
        h_exact(3, 4)
    with pytest.raises(ValueError):
        h_exact(-1, 0)


def test_h_asymptotic():
    assert abs(h_asymptotic(10, 10) - math.factorial(10) / math.e) <= 1e-3
    with pytest.raises(ValueError):
        h_asymptotic(100, 50)  # outside the window
    # relative error shrinks as a grows
    def rel(a):
        return abs(h_exact(a, a) * math.e / math.factorial(a) - 1)

    assert rel(20) < rel(10)


def test_falling_ratio_exact_examples():
    assert falling_ratio_exact(4, 2, 1) == Fraction(1, 2)
    assert falling_ratio_exact(10, 7, 0) == 1
    assert falling_ratio_exact(8, 6, 4) == Fraction(6, 28)
    assert falling_ratio_exact(8, 6, 4) == Fraction(math.comb(4, 2), math.comb(8, 6))


@given(
    a=st.integers(0, 40),
    data=st.data(),
)
def test_falling_ratio_binomial_identity(a, data):
    b = data.draw(st.integers(0, a))
    x = data.draw(st.integers(0, b))
    assert falling_ratio_exact(a, b, x) == Fraction(
        math.comb(a - x, b - x), math.comb(a, b)
    )


def test_falling_ratio_rejects():
    with pytest.raises(ValueError):
        falling_ratio_exact(4, 5, 1)
    with pytest.raises(ValueError):
        falling_ratio_exact(4, 2, 3)


def test_falling_ratio_asymptotic():
    assert falling_ratio_asymptotic(10, 5, 0) == 1.0
    assert falling_ratio_asymptotic(9, 9, 4) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        falling_ratio_asymptotic(4, 0, 0)


def test_edge_prob_exact():
    # full graph: every edge set survives
    assert edge_prob_exact(2, 2, 8, 4) == 1
    assert edge_prob_exact(2, 2, 8, 8) == 1
    assert edge_prob_exact(2, 2, 6, 4) == Fraction(360, 1680)
    assert edge_prob_exact(2, 2, 3, 4) == 0  # x > m
    with pytest.raises(ValueError):
        edge_prob_exact(2, 2, 6, 9)  # x beyond the edge count
