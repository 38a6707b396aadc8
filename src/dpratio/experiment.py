"""Monte Carlo harness: seeded trials of sample -> count, aggregation against
exact moments, convergence sweeps, and the one-shot verification suite.

Per-trial seeds are derived by hashing (master seed, trial index), so a run
is reproducible bit-for-bit under any parallel schedule.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from .counting import (
    CountPair,
    closed_form_counts,
    count_bruteforce,
    count_layered,
    count_permanent,
)
from .digraph import BlowupDigraph, build_blowup, sample_subgraph, to_general
from .moments import (
    expected_x_exact,
    expected_y_exact,
    moment_report,
    second_moment_x_exact,
    second_moment_y_upper,
)
from .params import ConstructionPlan, choose_ell, plan, solve_p
from .series import f_eval, falling_ratio_asymptotic, falling_ratio_exact, h_exact

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


# ---------------------------------------------------------------------------
# One-shot verification suite


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerifySummary:
    profile: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [f"verification profile: {self.profile}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            detail = f"  ({c.detail})" if c.detail else ""
            lines.append(f"  [{status}] {c.name}{detail}")
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


_PROFILES = {
    "tiny": {
        "layered_max_k": 4,
        "layered_max_ell": 3,
        "cross_trials": 50,
        "fact1_max_a": 20,
        "h_oracle_max_a": 5,
        "solver_grid": 20,
        "second_moments": False,
        "first_moments_23": False,
    },
    "small": {
        "layered_max_k": 6,
        "layered_max_ell": 4,
        "cross_trials": 200,
        "fact1_max_a": 40,
        "h_oracle_max_a": 7,
        "solver_grid": 50,
        "second_moments": True,
        "first_moments_23": True,
    },
    "full": {
        "layered_max_k": 6,
        "layered_max_ell": 4,
        "cross_trials": 400,
        "fact1_max_a": 40,
        "h_oracle_max_a": 7,
        "solver_grid": 50,
        "second_moments": True,
        "first_moments_23": True,
    },
}


def _check_ratio_bound(counts: CountPair) -> bool:
    return (
        2 * counts.derangements <= counts.permutations
        and counts.permutations >= counts.derangements + 1
    )


def h_window_error(a: int) -> float:
    """max_b |e h(a,b)/a! - 1| over the window a - a^(1/10) <= b <= a.

    The deviation sits far below double precision for large a, so the
    comparison runs in 60-digit arithmetic.
    """
    import mpmath

    lo = math.ceil(a - a ** (1 / 10))
    fact = math.factorial(a)
    with mpmath.workdps(60):
        return float(
            max(
                abs(mpmath.e * mpmath.mpf(h_exact(a, b)) / fact - 1)
                for b in range(lo, a + 1)
            )
        )


def _h_bruteforce(a: int, b: int) -> int:
    """Perfect matchings of K_{a,a} avoiding the fixed matching {i -> i: i < b}."""
    import itertools

    return sum(
        1
        for sigma in itertools.permutations(range(a))
        if all(sigma[i] != i for i in range(b))
    )


def _exhaustive_moments(k: int, ell: int, m: int) -> tuple[Fraction, ...]:
    """(E[X], E[Y], E[X^2], E[Y^2]) by enumerating every m-edge subgraph."""
    from .digraph import enumerate_subgraphs

    base = build_blowup(k, ell)
    n = math.comb(base.edge_count, m)
    sx = sy = sx2 = sy2 = 0
    for g in enumerate_subgraphs(base, m):
        c = count_permanent(to_general(g))
        sx += c.derangements
        sy += c.permutations
        sx2 += c.derangements**2
        sy2 += c.permutations**2
    return (
        Fraction(sx, n),
        Fraction(sy, n),
        Fraction(sx2, n),
        Fraction(sy2, n),
    )


def verify_all(profile: str = "small") -> VerifySummary:
    """Run every cross-check between independent computation routes.

    Named size tiers: tiny (quick smoke), small (the acceptance budget),
    full (larger sample counts).
    """
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {sorted(_PROFILES)}")
    cfg = _PROFILES[profile]
    summary = VerifySummary(profile=profile)
    ratio_ok = True

    # 1. closed forms vs brute force on small blow-ups
    ok = True
    for k, ell in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]:
        cf = closed_form_counts(k, ell)
        bf = count_bruteforce(to_general(build_blowup(k, ell)))
        ok &= cf == bf
        ratio_ok &= _check_ratio_bound(bf)
    summary.checks.append(
        CheckResult("closed-form counts (k!)^ell and sum_i (C(k,i)(k-i)!)^ell vs brute force", ok)
    )

    # 2. closed forms vs layered counter on full blow-ups
    ok = True
    for k in range(1, cfg["layered_max_k"] + 1):
        for ell in range(2, cfg["layered_max_ell"] + 1):
            cf = closed_form_counts(k, ell)
            ly = count_layered(build_blowup(k, ell).full_subgraph())
            ok &= cf == ly
            ratio_ok &= _check_ratio_bound(ly)
    summary.checks.append(CheckResult("closed-form counts vs layered transfer counter", ok))

    # 3. counter cross-validation on random subgraphs
    shapes = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (4, 3), (8, 2)]
    ok = True
    trials = cfg["cross_trials"]
    done = 0
    shape_idx = 0
    while done < trials:
        k, ell = shapes[shape_idx % len(shapes)]
        shape_idx += 1
        base = build_blowup(k, ell)
        s = derive_seed(12345, done)
        m = derive_seed(s, 0) % (base.edge_count + 1)
        g = sample_subgraph(base, m, s)
        ly = count_layered(g)
        pm = count_permanent(to_general(g))
        ok &= ly == pm
        if base.vertex_count <= 9:
            ok &= count_bruteforce(to_general(g)) == pm
        ratio_ok &= _check_ratio_bound(ly)
        done += 1
    summary.checks.append(
        CheckResult("layered = permanent = brute-force counts on random subgraphs", ok, f"{trials} graphs")
    )

    # 4. falling-factorial ratio identity and asymptotic decay
    ok = True
    amax = cfg["fact1_max_a"]
    for a in range(amax + 1):
        for b in range(a + 1):
            for x in range(b + 1):
                lhs = falling_ratio_exact(a, b, x)
                rhs = Fraction(math.comb(a - x, b - x), math.comb(a, b))
                ok &= lhs == rhs
    summary.checks.append(
        CheckResult(f"(b)_x/(a)_x equals binomial ratio C(a-x,b-x)/C(a,b), a <= {amax}", ok)
    )
    errs = []
    for k in (4, 8, 16):
        cp = plan(0.3, k)
        a, b, x = k * k * cp.ell, cp.m, k * cp.ell
        exact = float(falling_ratio_exact(a, b, x))
        approx = falling_ratio_asymptotic(a, b, x)
        errs.append(abs(approx / exact - 1.0))
    summary.checks.append(
        CheckResult(
            "falling-ratio asymptotic error decreases at each k-doubling",
            errs[0] > errs[1] > errs[2],
            f"errors {errs}",
        )
    )

    # 5. h oracle and a!/e window decay
    ok = True
    for a in range(cfg["h_oracle_max_a"] + 1):
        for b in range(a + 1):
            ok &= h_exact(a, b) == _h_bruteforce(a, b)
            ok &= 0 <= h_exact(a, b) <= math.factorial(a)
    summary.checks.append(
        CheckResult("h(a,b) inclusion-exclusion vs forbidden-matching enumeration", ok)
    )
    werrs = [h_window_error(a) for a in (10, 20, 40)]
    summary.checks.append(
        CheckResult(
            "h(a,b) ~ a!/e window error decreases over a in {10, 20, 40}",
            werrs[0] > werrs[1] > werrs[2],
            f"errors {werrs}",
        )
    )

    # 6. solver residuals on an r-grid
    n_grid = cfg["solver_grid"]
    ok = True
    for t in range(n_grid):
        r = 0.01 + (0.49 - 0.01) * t / (n_grid - 1)
        ell = choose_ell(r)
        p, x = solve_p(r, ell)
        ok &= abs(f_eval(ell, 1.0 / p).value * r - 1.0) <= 1e-9
        ok &= 0.0 < p < 1.0
    ok &= choose_ell(0.3) == 2 and choose_ell(0.45) == 3
    summary.checks.append(
        CheckResult(f"root solver residual |f_ell(1/p) r - 1| <= 1e-9 on {n_grid}-point grid", ok)
    )

    # 7. exact-moment formulas vs exhaustive enumeration
    ok = True
    for m in range(9):
        ox, oy, ox2, oy2 = _exhaustive_moments(2, 2, m)
        ok &= expected_x_exact(2, 2, m) == ox
        ok &= expected_y_exact(2, 2, m) == oy
        if cfg["second_moments"]:
            ok &= second_moment_x_exact(2, 2, m) == ox2
            ok &= second_moment_y_upper(2, 2, m) >= oy2
    if cfg["first_moments_23"]:
        for m in range(13):
            ox, oy, _, oy2 = _exhaustive_moments(2, 3, m)
            ok &= expected_x_exact(2, 3, m) == ox
            ok &= expected_y_exact(2, 3, m) == oy
            if cfg["second_moments"]:
                ok &= second_moment_y_upper(2, 3, m) >= oy2
    summary.checks.append(
        CheckResult("moment formulas vs exhaustive subgraph enumeration", ok)
    )

    summary.checks.append(
        CheckResult("every counted graph satisfies 2X <= Y and Y >= X + 1", ratio_ok)
    )
    return summary
