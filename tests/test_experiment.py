import json
import math

import pytest

from dpratio.counting import closed_form_counts
from dpratio.experiment import (
    convergence_sweep,
    derive_seed,
    run_mc,
    sweep_csv,
)
from dpratio.params import ConstructionPlan, plan


def test_derive_seed_deterministic_and_spread():
    assert derive_seed(0, 0) == derive_seed(0, 0)
    seeds = {derive_seed(0, t) for t in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(1, 0) != derive_seed(0, 0)
    assert all(0 <= s < 2**64 for s in list(seeds)[:50])


def test_derive_seed_rejects_out_of_range_masters():
    # a mod-2^64 reduction would alias 2**70 with 0 and -1 with 2**64 - 1
    assert 0 <= derive_seed(0, 3) < 2**64
    assert 0 <= derive_seed(2**64 - 1, 3) < 2**64
    assert derive_seed(2**64 - 1, 3) != derive_seed(0, 3)
    for bad in (-1, 2**64, 2**70):
        with pytest.raises(ValueError):
            derive_seed(bad, 3)


def test_run_mc_deterministic():
    cp = plan(0.3, 4)
    a = run_mc(cp, 40, seed=7, epsilon=0.05)
    b = run_mc(cp, 40, seed=7, epsilon=0.05)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_run_mc_deterministic_across_workers():
    cp = plan(0.3, 4)
    a = run_mc(cp, 40, seed=7, epsilon=0.05, workers=1)
    b = run_mc(cp, 40, seed=7, epsilon=0.05, workers=3)
    assert json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict())


def test_run_mc_universal_bound():
    cp = plan(0.35, 4)
    rep = run_mc(cp, 60, seed=11)
    for _, x, y, ratio in rep.per_trial:
        assert 2 * x <= y
        assert y >= x + 1
        assert ratio <= 0.5
    assert rep.trials == len(rep.per_trial)
    assert 0.0 <= rep.fraction_within <= 1.0


def test_run_mc_degenerate_full_graph():
    # m = k^2*ell directly (bypassing the plan rounding guard): no randomness
    cp = ConstructionPlan(r=0.4, ell=2, p=1.0, x=1.0, k=3, m=18)
    rep = run_mc(cp, 10, seed=0)
    expected = float(closed_form_counts(3, 2).ratio())
    assert rep.empirical_sd == 0.0
    assert all(r == expected for _, _, _, r in rep.per_trial)


def test_run_mc_rejects():
    cp = plan(0.3, 4)
    with pytest.raises(ValueError):
        run_mc(cp, 0)
    for kwargs in ({"workers": 0}, {"workers": -2}):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_mc(cp, 2, **kwargs)
    for epsilon in (math.nan, -0.01, math.inf):
        with pytest.raises(ValueError, match="epsilon must be a finite number >= 0"):
            run_mc(cp, 2, epsilon=epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            convergence_sweep(0.3, [4], epsilon=epsilon)
    with pytest.raises(ValueError, match="trials must be >= 0"):
        convergence_sweep(0.3, [4], trials=-1)


def test_per_trial_csv_shape():
    cp = plan(0.3, 4)
    rep = run_mc(cp, 5, seed=1)
    lines = rep.per_trial_csv().strip().split("\n")
    assert lines[0] == "trial,seed,x,y,ratio"
    assert len(lines) == 6


def test_sweep_rows():
    rows = convergence_sweep(0.3, [6, 4], trials=0)
    assert [row["k"] for row in rows] == [4, 6]
    assert rows[1]["abs_error"] < rows[0]["abs_error"]
    csv = sweep_csv(rows)
    assert csv.startswith("k,ell,m,p,exact_ratio")


def test_sweep_single_k_matches_report():
    from dpratio.moments import moment_report_for_plan

    rows = convergence_sweep(0.3, [5], trials=0)
    cp = plan(0.3, 5)
    rep = moment_report_for_plan(cp)
    assert rows[0]["exact_ratio"] == float(rep.ratio_exact)
    assert rows[0]["x_concentration"] == rep.x_concentration


def test_sweep_uses_choose_ell():
    rows = convergence_sweep(0.45, [4], trials=0)
    assert rows[0]["ell"] == 3
