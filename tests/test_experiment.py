import concurrent.futures
import json
import math
import os

import pytest

import dpratio.experiment
from dpratio.experiment import (
    convergence_sweep,
    derive_seed,
    run_mc,
    sweep_csv,
)
from dpratio.oracles import closed_form_counts
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
    with pytest.raises(ValueError, match="trials must be >= 0"):
        convergence_sweep(0.3, [4], trials=-1)
    # one row per k: a repeated k is refused, not swept twice
    with pytest.raises(ValueError, match="k_list repeats k=4; a sweep has one row per k"):
        convergence_sweep(0.3, [4, 2, 4], trials=1)


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


def test_sweep_rows_match_reports_and_refuse_as_they_do():
    # the sweep takes its columns from E[X], E[Y] and E[X^2] alone; each
    # must equal the full report's, and k past SECOND_MOMENT_MAX_K is refused
    # with the report's message
    from dpratio.moments import SECOND_MOMENT_MAX_K, moment_report_for_plan

    for r, ks in ((0.3, [2, 8, 25]), (0.45, [3, 12, 25]), (0.1, [4, 11])):
        for row in convergence_sweep(r, ks):
            rep = moment_report_for_plan(plan(r, row["k"]))
            assert row["exact_ratio"] == rep.ratio_exact_float
            assert row["abs_error"] == abs(rep.ratio_exact_float - r)
            assert row["x_concentration"] == rep.x_concentration
    k = SECOND_MOMENT_MAX_K + 1
    with pytest.raises(ValueError) as refused:
        moment_report_for_plan(plan(0.3, k))
    with pytest.raises(ValueError) as swept:
        convergence_sweep(0.3, [4, k])
    assert str(swept.value) == str(refused.value)


def test_sweep_uses_choose_ell():
    rows = convergence_sweep(0.45, [4], trials=0)
    assert rows[0]["ell"] == 3


def test_run_mc_refuses_oversized_k_before_sampling(monkeypatch):
    # sampling costs k^2*ell; the layered counter's limit is checked first
    def no_sampling(*args):
        raise AssertionError("sampled before the k check")

    monkeypatch.setattr(dpratio.experiment, "sample_subgraph", no_sampling)
    with pytest.raises(ValueError, match="layered counting limited to k <= 12"):
        run_mc(plan(0.3, 13), 1)


def test_run_mc_caps_the_pool(monkeypatch):
    # the pool forks max_workers processes at once, so it never gets more
    # than the trials or the CPUs can use; one worker runs in-process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    cp = plan(0.3, 4)
    for workers, trials, size in ((64, 3, 3), (64, 10, 4), (2, 10, 2), (64, 1, None)):
        sizes.clear()
        rep = run_mc(cp, trials, seed=5, workers=workers)
        assert sizes == ([] if size is None else [size])
        assert rep == run_mc(cp, trials, seed=5)
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: one CPU
    sizes.clear()
    run_mc(cp, 3, seed=5, workers=8)
    assert sizes == []
