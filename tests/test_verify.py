import inspect
import math
import sys

import mpmath
import pytest

from dpratio import cli, counting, layered, moments, oracles, permanent, series, verify


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
                    abs(mpmath.e * mpmath.mpf(oracles.h_exact(a, b)) / math.factorial(a) - 1)
                    for b in range(lo, a + 1)
                )
            )
        assert oracles.h_window_error(a) == ref, a


def test_check_h_runs_without_mpmath(monkeypatch):
    monkeypatch.setitem(sys.modules, "mpmath", None)  # any import of it now fails
    results = verify.check_h(verify.PROFILES["tiny"], lambda c: c)
    assert len(results) == 2 and all(r.passed for r in results)


def test_check_h_reads_the_production_table(monkeypatch):
    # series.h_table with h(3, 1) = 4 read as 5 and h(10, 9) one above its
    # value: the table check must fail, and the window error must move
    table = series.h_table

    def off_by_one(k):
        h = table(k)
        for a, b in ((3, 1), (10, 9)):
            if k >= a:
                h[a][b] += 1
        return h

    assert all(r.passed for r in verify.check_h(verify.PROFILES["tiny"], lambda c: c))
    monkeypatch.setattr(series, "h_table", off_by_one)
    results = verify.check_h(verify.PROFILES["tiny"], lambda c: c)
    assert [r.passed for r in results] == [False, True]
    assert oracles.h_window_error(10) != 0.09999999420565592
    assert not verify.verify_all("tiny").passed


def test_check_falling_ratio_reads_the_production_walk(monkeypatch):
    # moments._edge_expectation with each step of its binomial walk one
    # above its value: criterion 4's exact line must fail on E[Y], while
    # the asymptotic line still passes
    source = inspect.getsource(moments._edge_expectation)
    step = "c = c * (total - x) // (m - x)"
    assert source.count(step) == 1
    namespace = dict(vars(moments))
    exec(source.replace(step, step + " + 1"), namespace)
    tiny = verify.PROFILES["tiny"]
    assert all(r.passed for r in verify.check_falling_ratio(tiny, lambda c: c))
    monkeypatch.setattr(moments, "_edge_expectation", namespace["_edge_expectation"])
    results = verify.check_falling_ratio(tiny, lambda c: c)
    assert [r.passed for r in results] == [False, True]
    assert not verify.verify_all("tiny").passed


def test_exact_law_calls_no_counter(monkeypatch):
    # the law oracle counts each subgraph by brute force, never through a
    # production counter or the kernels behind them: the Glynn kernel of
    # count_permanent and the transfer-matrix kernel of count_layered
    expected = [oracles.exact_law(2, 2, m) for m in (0, 4, 8)]

    def refuse(*args):
        raise AssertionError("the oracle called a production counter")

    for name in ("count", "count_layered", "count_permanent"):
        monkeypatch.setattr(counting, name, refuse)
    for name in ("permanent", "_glynn"):
        monkeypatch.setattr(permanent, name, refuse)
    monkeypatch.setattr(layered, "counts", refuse)
    assert [oracles.exact_law(2, 2, m) for m in (0, 4, 8)] == expected


def test_exact_law_identities():
    # one atom per subgraph in all; the empty subgraph has only the identity
    # permutation, and the full blow-up the closed-form counts
    for k, ell in ((1, 2), (2, 2), (2, 3)):
        total = k * k * ell
        laws = [oracles.exact_law(k, ell, m) for m in range(total + 1)]
        assert [law.total() for law in laws] == [math.comb(total, m) for m in range(total + 1)]
        assert laws[0] == {counting.CountPair(0, 1): 1}
        assert laws[-1] == {oracles.closed_form_counts(k, ell): 1}
    assert len(oracles.exact_law(3, 2, 9)) == 22


def test_verify_reports_a_ratio_bound_violation(monkeypatch):
    # every layered count read as X = 3, Y = 5 breaks 2X <= Y: the last
    # check, the ratio bound over every recorded count, must fail, and the
    # verify command with it
    monkeypatch.setattr(counting, "count_layered", lambda g: counting.CountPair(3, 5))
    summary = verify.verify_all("tiny")
    assert not summary.checks[-1].passed and not summary.passed
    last = "  [FAIL] every counted graph satisfies 2X <= Y and Y >= X + 1"
    assert summary.render().splitlines()[-2:] == [last, "overall: FAIL"]
    assert cli.main(["verify", "--profile", "tiny"]) == 1
