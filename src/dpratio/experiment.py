"""Monte Carlo harness: seeded trials of sample -> count, aggregation against
exact moments, and convergence sweeps.

Per-trial seeds are derived by hashing (master seed, trial index), so a run
is reproducible bit-for-bit under any parallel schedule.
"""

from __future__ import annotations

import hashlib
import math
import os
import statistics
import struct
from dataclasses import dataclass
from typing import NamedTuple

from .counting import check_layered_k, count_layered
from .digraph import build_blowup, csv_text, report_json, sample_subgraph
from .moments import (
    _exact_float,
    check_second_moment_k,
    expected_x_exact,
    expected_y_exact,
    second_moment_x_exact,
)
from .params import ConstructionPlan, plan

DEFAULT_EPSILON = 0.05
DEFAULT_SEED = 0


def derive_seed(master: int, index: int) -> int:
    """Counter-mode seed split: 64-bit hash of (master seed, trial index).

    The master seed must lie in [0, 2^64); distinct masters never alias.
    """
    if not 0 <= master < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {master}")
    digest = hashlib.sha256(struct.pack("<QQ", master, index)).digest()
    return int.from_bytes(digest[:8], "little")


class Trial(NamedTuple):
    seed: int
    x: int
    y: int
    ratio: float  # x / y


@dataclass(frozen=True)
class McReport:
    """Aggregated Monte Carlo results for one construction plan."""

    plan: ConstructionPlan
    trials: int
    epsilon: float
    per_trial: tuple[Trial, ...]
    empirical_mean_ratio: float
    empirical_sd: float
    exact_ratio: float
    fraction_within: float

    def to_json_dict(self) -> dict:
        return {
            **report_json(self),
            "plan": self.plan.to_json_dict(),
            "per_trial": [t._asdict() for t in self.per_trial],
        }

    PER_TRIAL_CSV_COLUMNS = "trial,seed,x,y,ratio"

    def per_trial_csv(self) -> str:
        rows = ({"trial": i, **t._asdict()} for i, t in enumerate(self.per_trial))
        return csv_text(self.PER_TRIAL_CSV_COLUMNS, rows)


def _run_trial(args: tuple[int, int, int, int]) -> tuple[int, int]:
    k, ell, m, trial_seed = args
    g = sample_subgraph(build_blowup(k, ell), m, trial_seed)
    c = count_layered(g)
    return c.derangements, c.permutations


def run_mc(
    cplan: ConstructionPlan,
    trials: int,
    seed: int = DEFAULT_SEED,
    epsilon: float = DEFAULT_EPSILON,
    workers: int = 1,
) -> McReport:
    """Run seeded trials of sample -> count and compare against exact moments.

    Deterministic function of (plan, trials, seed, epsilon), independent of
    the worker count: trial t always uses derive_seed(seed, t) and results
    are aggregated in trial order.  At most min(workers, trials, CPU count)
    processes run the trials; with one, they run in this process.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be a finite number >= 0, got {epsilon}")
    k, ell, m = cplan.k, cplan.ell, cplan.m
    check_layered_k(k)  # before sampling, whose cost grows with k^2*ell
    seeds = [derive_seed(seed, t) for t in range(trials)]
    args = [(k, ell, m, s) for s in seeds]
    # the pool forks all max_workers processes at its first submit
    workers = min(workers, trials, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(_run_trial, args, chunksize=max(1, trials // (4 * workers))))
    else:
        counts = [_run_trial(a) for a in args]
    per_trial = tuple(Trial(s, x, y, x / y) for s, (x, y) in zip(seeds, counts))
    ratios = [t.ratio for t in per_trial]
    exact_ratio = float(expected_x_exact(k, ell, m) / expected_y_exact(k, ell, m))
    mean = math.fsum(ratios) / trials
    sd = statistics.stdev(ratios) if trials > 1 else 0.0
    within = sum(1 for r in ratios if abs(r - exact_ratio) <= epsilon)
    return McReport(
        plan=cplan,
        trials=trials,
        epsilon=epsilon,
        per_trial=per_trial,
        empirical_mean_ratio=mean,
        empirical_sd=sd,
        exact_ratio=exact_ratio,
        fraction_within=within / trials,
    )


SWEEP_CSV_COLUMNS = "k,ell,m,p,exact_ratio,abs_error,x_concentration,empirical_mean_ratio"


def convergence_sweep(
    r: float,
    k_list: list[int],
    trials: int = 0,
    seed: int = DEFAULT_SEED,
) -> list[dict]:
    """One row per k (ascending): exact ratio, its error vs r, concentration,
    and (when trials > 0) the empirical mean ratio.  The ratio and the X
    concentration are the `moment_report` fields of the plan, from E[X],
    E[Y] and E[X^2] alone; k is refused where `moment_report` refuses it."""
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    k_list = sorted(k_list)
    for k, next_k in zip(k_list, k_list[1:]):
        if k == next_k:
            raise ValueError(f"k_list repeats k={k}; a sweep has one row per k")
    rows = []
    for k in k_list:
        cplan = plan(r, k)
        check_second_moment_k(k)
        ell, m = cplan.ell, cplan.m
        ex = expected_x_exact(k, ell, m)
        ratio = _exact_float("ratio_exact_float", ex / expected_y_exact(k, ell, m))
        rows.append({
            "k": k,
            "ell": ell,
            "m": m,
            "p": cplan.p,
            "exact_ratio": ratio,
            "abs_error": abs(ratio - r),
            "x_concentration": (
                _exact_float("x_concentration", second_moment_x_exact(k, ell, m) / (ex * ex) - 1)
                if ex
                else None
            ),
            "empirical_mean_ratio": (
                run_mc(cplan, trials, seed=seed).empirical_mean_ratio
                if trials > 0
                else None
            ),
        })
    return rows


def sweep_csv(rows: list[dict]) -> str:
    return csv_text(SWEEP_CSV_COLUMNS, rows)
