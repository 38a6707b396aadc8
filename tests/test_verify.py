import math
import sys

import mpmath
import pytest

from dpratio import oracles, series, verify


def test_verify_rejects_unknown_profile():
    with pytest.raises(ValueError):
        verify.verify_all("huge")


def test_h_window_error_frozen():
    # frozen from the 60-digit mpmath route the exact one replaced
    assert [oracles.h_window_error(a) for a in (10, 20, 40)] == [0.09999999420565592, 0.05, 0.025]


def test_h_window_error_matches_mpmath():
    for a in range(1, 41):
        lo = math.ceil(a - a ** (1 / 10))
        with mpmath.workdps(60):
            ref = float(
                max(
                    abs(mpmath.e * mpmath.mpf(series.h_exact(a, b)) / math.factorial(a) - 1)
                    for b in range(lo, a + 1)
                )
            )
        assert oracles.h_window_error(a) == ref, a


def test_check_h_runs_without_mpmath(monkeypatch):
    monkeypatch.setitem(sys.modules, "mpmath", None)  # any import of it now fails
    results = verify.check_h(verify.PROFILES["tiny"], lambda c: c)
    assert len(results) == 2 and all(r.passed for r in results)
