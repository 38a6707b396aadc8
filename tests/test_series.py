import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpratio.series import (
    f_eval,
    falling_ratio_asymptotic,
    falling_ratio_exact,
    h_exact,
)


def test_f_eval_at_zero():
    for ell in (1, 2, 5):
        sv = f_eval(ell, 0.0)
        assert sv.value == 1.0


def test_f1_is_exp():
    sv = f_eval(1, 1.0)
    assert abs(sv.value - math.e) <= 1e-12
    assert sv.tail_bound <= 1e-12
    sv = f_eval(1, 2.5)
    assert abs(sv.value - math.exp(2.5)) <= 1e-10


def test_f2_at_one():
    # sum of 1/(i!)^2, cross-checked in 50-digit arithmetic
    with mpmath.workdps(50):
        ref = float(mpmath.nsum(lambda i: 1 / mpmath.factorial(i) ** 2, [0, mpmath.inf]))
    sv = f_eval(2, 1.0)
    assert abs(sv.value - ref) <= 1e-12
    assert abs(sv.value - 2.279585302) <= 1e-9


def test_f_eval_rejects_bad_args():
    with pytest.raises(ValueError):
        f_eval(2, -1.0)
    with pytest.raises(ValueError):
        f_eval(0, 1.0)


def test_f_eval_overflow_raises():
    # terms overflow to inf long before they would drop below float precision
    with pytest.raises(ValueError):
        f_eval(2, 400.0)
    with pytest.raises(ValueError):
        f_eval(200, 400.0)
    with pytest.raises(ValueError):
        f_eval(2, float("nan"))
    # every term is finite here, but their sum is not
    with pytest.raises(ValueError):
        f_eval(2, 358.5)
    with pytest.raises(ValueError):
        f_eval(1, 709.9)


def test_f_tail_bound_honest():
    # tail_bound plus float rounding covers the error against a 50-digit sum
    for ell in (1, 2, 3):
        for x in (0.5, 1.0, 2.0, 4.0):
            sv = f_eval(ell, x)
            with mpmath.workdps(50):
                ref = float(
                    mpmath.nsum(
                        lambda i: mpmath.mpf(x) ** (i * ell) / mpmath.factorial(i) ** ell,
                        [0, mpmath.inf],
                    )
                )
            assert abs(sv.value - ref) <= sv.tail_bound + 1e-14 * ref


@settings(max_examples=200, deadline=200)
@given(ell=st.integers(1, 8), x=st.floats(0.0, 1000.0))
def test_f_eval_float_precision_or_value_error(ell, x):
    # a finite value with a tail under the float's rounding, or a
    # ValueError; never an OverflowError
    try:
        sv = f_eval(ell, x)
    except ValueError:
        return
    assert math.isfinite(sv.value)
    assert sv.tail_bound <= 2.0**-52 * sv.value


def test_f_monotone_in_x():
    for ell in (1, 2, 4):
        vals = [f_eval(ell, x).value for x in (0.0, 0.3, 1.0, 1.7, 3.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_f_at_one_bounds():
    # the paper's bound 2 <= f_ell(1) <= 2 + 1/(2^ell - 1)
    for ell in range(1, 13):
        v = f_eval(ell, 1.0).value
        assert 2 <= v <= 2 + 1 / (2**ell - 1) + 1e-13


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


def test_h_exact_rejects():
    with pytest.raises(ValueError):
        h_exact(3, 4)
    with pytest.raises(ValueError):
        h_exact(-1, 0)


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

