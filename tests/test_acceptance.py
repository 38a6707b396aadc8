"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Exact claims are integer/rational equalities; asymptotic claims are checked
as monotone trends at desk scale; stochastic claims run under pinned seeds
with frozen regression thresholds.
"""

import json
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from dpratio.counting import CountPair
from dpratio.experiment import run_mc
from dpratio.moments import (
    expected_x_exact,
    expected_y_exact,
    second_moment_x_exact,
)
from dpratio.oracles import exact_law
from dpratio.params import ConstructionPlan, plan
from dpratio.verify import (
    PROFILES,
    check_closed_form_bruteforce,
    check_closed_form_layered,
    check_counters,
    check_falling_ratio,
    check_h,
    check_moments,
    check_solver,
    law_mean,
    ratio_bound_holds,
)

# Frozen after the first pinned run of plan(0.3, 8), 200 trials, seed 0,
# epsilon 0.05: observed fraction_within = 0.99.
FROZEN_FRACTION_WITHIN = 0.99

# Criterion 9's second run: X at the (3, 2) blow-up with m = 9 of its 18 edges.
CONCENTRATION_PLAN = ConstructionPlan(r=0.0, ell=2, p=0.5, x=2.0, k=3, m=9)
CONCENTRATION_TRIALS = 5000


@pytest.fixture(scope="module")
def counted():
    """Every run that counts graphs, once: criteria 1 and 2's checks at the
    small profile and criterion 9's two Monte Carlo runs.  Each count passes
    through one recorder, so criterion 3 sees all of them in any test order."""
    recorded = []

    def record(counts):
        recorded.append(counts)
        return counts

    checks = {
        check: check(PROFILES["small"], record)
        for check in (check_closed_form_bruteforce, check_closed_form_layered, check_counters)
    }
    mc = run_mc(plan(0.3, 8), 200, seed=0, epsilon=0.05)
    mc2 = run_mc(CONCENTRATION_PLAN, CONCENTRATION_TRIALS, seed=0)
    for rep in (mc, mc2):
        for _, x, y, _ in rep.per_trial:
            record(CountPair(derangements=x, permutations=y))
    return SimpleNamespace(checks=checks, mc=mc, mc2=mc2, recorded=recorded)


def _no_counts(counts):
    raise AssertionError("criteria 4-7 count no graph, so criterion 3 does not cover them")


def _report(criterion: str, passed: bool):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}")
    assert passed, criterion


def _report_checks(criterion: str, *checks):
    # criteria 4-7 run the verify suite's checks at its small profile
    results = [r for check in checks for r in check(PROFILES["small"], _no_counts)]
    _report(criterion, all(r.passed for r in results))


def _report_counted(criterion: str, counted, *checks):
    _report(criterion, all(r.passed for check in checks for r in counted.checks[check]))


def test_criterion_1_closed_form_fidelity(counted):
    _report_counted(
        "1 closed-form fidelity",
        counted,
        check_closed_form_bruteforce,
        check_closed_form_layered,
    )


def test_criterion_2_counter_cross_validation(counted):
    assert len(PROFILES["small"].cross_shapes) == 200
    _report_counted("2 counter cross-validation (200 subgraphs)", counted, check_counters)


def test_criterion_3_ratio_bound_zero_violations(counted):
    # 5 + 18 closed-form graphs, 200 random subgraphs, 200 + 5000 trials
    assert len(counted.recorded) == 5 + 18 + 200 + 200 + CONCENTRATION_TRIALS
    _report(
        "3 universal ratio bound 2X <= Y",
        all(ratio_bound_holds(c) for c in counted.recorded),
    )


def test_criterion_4_fact1_identity_and_decay():
    _report_checks("4 falling-factorial identity + asymptotic decay", check_falling_ratio)


def test_criterion_5_h_function():
    _report_checks("5 h-function oracle + window decay", check_h)


def test_criterion_6_solver():
    _report_checks("6 solver residuals on 50-point r-grid", check_solver)


def test_criterion_7_exact_moment_oracle():
    _report_checks("7 exact-moment oracle at (2,2) and (2,3)", check_moments)


def test_criterion_8_convergence_trend():
    errs = []
    concs = []
    for k in (4, 6, 8, 10, 12):
        cp = plan(0.3, k)
        assert cp.ell == 2
        ratio = expected_x_exact(cp.k, cp.ell, cp.m) / expected_y_exact(
            cp.k, cp.ell, cp.m
        )
        errs.append(abs(ratio - Fraction(3, 10)))
        ex = expected_x_exact(cp.k, cp.ell, cp.m)
        ex2 = second_moment_x_exact(cp.k, cp.ell, cp.m)
        concs.append(ex2 / (ex * ex) - 1)
    ok = all(a > b for a, b in zip(errs, errs[1:]))
    ok &= all(a > b for a, b in zip(concs, concs[1:]))
    _report("8 convergence trend in k for r = 0.3", ok)


def test_criterion_9_concentration(counted):
    ok = counted.mc.fraction_within >= FROZEN_FRACTION_WITHIN
    k, ell, m = CONCENTRATION_PLAN.k, CONCENTRATION_PLAN.ell, CONCENTRATION_PLAN.m
    ex = float(expected_x_exact(k, ell, m))
    var = float(second_moment_x_exact(k, ell, m)) - ex * ex
    se = math.sqrt(var / CONCENTRATION_TRIALS)
    mean_x = sum(x for _, x, _, _ in counted.mc2.per_trial) / CONCENTRATION_TRIALS
    ok &= abs(mean_x - ex) <= 5 * se
    # the whole sample: its fraction within epsilon against the exact
    # probability over every m-edge subgraph, with run_mc's float test
    mc2 = counted.mc2
    p = float(
        law_mean(
            exact_law(k, ell, m), lambda x, y: abs(x / y - mc2.exact_ratio) <= mc2.epsilon
        )
    )
    ok &= abs(mc2.fraction_within - p) <= 5 * math.sqrt(p * (1 - p) / CONCENTRATION_TRIALS)
    _report("9 empirical concentration (pinned seeds)", ok)


def test_criterion_10_determinism():
    cp = plan(0.3, 5)
    a = run_mc(cp, 30, seed=42, epsilon=0.05, workers=1)
    b = run_mc(cp, 30, seed=42, epsilon=0.05, workers=1)
    c = run_mc(cp, 30, seed=42, epsilon=0.05, workers=4)
    ja, jb, jc = (json.dumps(r.to_json_dict()) for r in (a, b, c))
    ok = ja == jb == jc
    _report("10 byte-identical reports across runs and worker counts", ok)

