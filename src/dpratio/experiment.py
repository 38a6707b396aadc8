"""Monte Carlo harness: seeded trials of sample -> count, aggregation against
exact moments, and convergence sweeps.

Per-trial seeds are derived by hashing (master seed, trial index), so a run
is reproducible bit-for-bit under any parallel schedule.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .counting import count_layered
from .digraph import build_blowup, sample_subgraph
from .moments import expected_x_exact, expected_y_exact, moment_report
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


@dataclass(frozen=True)
class McReport:
    """Aggregated Monte Carlo results for one construction plan."""

    plan: ConstructionPlan
    trials: int
    epsilon: float
    per_trial: tuple[tuple[int, int, int, float], ...]  # (seed, X, Y, X/Y)
    empirical_mean_ratio: float
    empirical_sd: float
    exact_ratio: float
    fraction_within: float

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "plan": self.plan.to_json_dict(),
            "trials": self.trials,
            "epsilon": self.epsilon,
            "per_trial": [
                {"seed": s, "x": x, "y": y, "ratio": r}
                for s, x, y, r in self.per_trial
            ],
            "empirical_mean_ratio": self.empirical_mean_ratio,
            "empirical_sd": self.empirical_sd,
            "exact_ratio": self.exact_ratio,
            "fraction_within": self.fraction_within,
        }

    PER_TRIAL_CSV_COLUMNS = "trial,seed,x,y,ratio"

    def per_trial_csv(self) -> str:
        lines = [self.PER_TRIAL_CSV_COLUMNS]
        for t, (s, x, y, r) in enumerate(self.per_trial):
            lines.append(f"{t},{s},{x},{y},{r}")
        return "\n".join(lines) + "\n"


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
    are aggregated in trial order.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k, ell, m = cplan.k, cplan.ell, cplan.m
    seeds = [derive_seed(seed, t) for t in range(trials)]
    args = [(k, ell, m, s) for s in seeds]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(_run_trial, args, chunksize=max(1, trials // (4 * workers))))
    else:
        counts = [_run_trial(a) for a in args]
    per_trial = tuple(
        (s, x, y, x / y) for s, (x, y) in zip(seeds, counts)
    )
    ratios = [r for _, _, _, r in per_trial]
    exact_ratio = float(
        expected_x_exact(k, ell, m) / expected_y_exact(k, ell, m)
    )
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


SWEEP_CSV_COLUMNS = (
    "k,ell,m,p,exact_ratio,abs_error,x_concentration,empirical_mean_ratio"
)


def convergence_sweep(
    r: float,
    k_list: list[int],
    trials: int = 0,
    seed: int = DEFAULT_SEED,
    epsilon: float = DEFAULT_EPSILON,
) -> list[dict]:
    """One row per k (ascending): exact ratio, its error vs r, concentration,
    and (when trials > 0) the empirical mean ratio."""
    rows = []
    for k in sorted(k_list):
        cplan = plan(r, k)
        report = moment_report(cplan.k, cplan.ell, cplan.m, p=cplan.p, r=r)
        row = {
            "k": k,
            "ell": cplan.ell,
            "m": cplan.m,
            "p": cplan.p,
            "exact_ratio": float(report.ratio_exact),
            "abs_error": abs(float(report.ratio_exact) - r),
            "x_concentration": report.x_concentration,
            "empirical_mean_ratio": None,
        }
        if trials > 0:
            row["empirical_mean_ratio"] = run_mc(
                cplan, trials, seed=seed, epsilon=epsilon
            ).empirical_mean_ratio
        rows.append(row)
    return rows


def sweep_csv(rows: list[dict]) -> str:
    lines = [SWEEP_CSV_COLUMNS]
    for row in rows:
        emp = row["empirical_mean_ratio"]
        lines.append(
            f"{row['k']},{row['ell']},{row['m']},{row['p']},{row['exact_ratio']},"
            f"{row['abs_error']},{row['x_concentration']},"
            f"{'' if emp is None else emp}"
        )
    return "\n".join(lines) + "\n"

