"""One-shot verification suite: every cross-check between independent
computation routes, written once.

A check takes a `Profile` (the sizes it runs at) and a recorder that every
`CountPair` it counts passes through, and returns its report line(s).
`verify_all` runs `CHECKS` in order and closes with the universal ratio
bound over everything recorded; the acceptance tests run the same checks at
the `small` profile.  As in `dpratio.oracles`, calls go through the module
attributes.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import counting, digraph, experiment, moments, oracles, params, series
from .counting import CountPair


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


@dataclass(frozen=True)
class Profile:
    """The sizes one run of the checks uses."""

    layered_max_k: int
    layered_max_ell: int
    cross_seed: int
    cross_shapes: tuple[tuple[int, int], ...]  # (k, ell) of each random subgraph
    fact1_max_a: int
    h_oracle_max_a: int
    solver_grid: int
    moment_shapes: tuple[tuple[int, int], ...]  # (k, ell) of each exact_law enumeration


_ROUND_ROBIN_SHAPES = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (4, 3), (8, 2))
_WEIGHTED_SHAPES = {  # (k, ell) -> subgraphs of that shape, 200 in all
    (2, 2): 30, (2, 3): 30, (3, 2): 30, (2, 4): 25, (4, 2): 25,
    (3, 3): 25, (4, 3): 12, (3, 4): 10, (4, 4): 8, (8, 2): 5,
}

#: tiny is a quick smoke run; small is exactly the acceptance suite's sizes.
PROFILES = {
    "tiny": Profile(
        layered_max_k=4,
        layered_max_ell=3,
        cross_seed=12345,
        cross_shapes=tuple(_ROUND_ROBIN_SHAPES[t % len(_ROUND_ROBIN_SHAPES)] for t in range(50)),
        fact1_max_a=20,
        h_oracle_max_a=5,
        solver_grid=20,
        moment_shapes=((2, 2),),
    ),
    "small": Profile(
        layered_max_k=6,
        layered_max_ell=4,
        cross_seed=777,
        cross_shapes=tuple(s for s, n in _WEIGHTED_SHAPES.items() for _ in range(n)),
        fact1_max_a=40,
        h_oracle_max_a=7,
        solver_grid=50,
        moment_shapes=((2, 2), (2, 3)),
    ),
}

Record = Callable[[CountPair], CountPair]


def ratio_bound_holds(counts: CountPair) -> bool:
    """The bound every digraph satisfies: 2X <= Y and Y >= X + 1."""
    return (
        2 * counts.derangements <= counts.permutations
        and counts.permutations >= counts.derangements + 1
    )


def check_closed_form_bruteforce(prof: Profile, record: Record) -> list[CheckResult]:
    ok = True
    for k, ell in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]:
        g = digraph.to_general(digraph.build_blowup(k, ell))
        ok &= oracles.closed_form_counts(k, ell) == record(oracles.count_bruteforce(g))
    return [
        CheckResult("closed-form counts (k!)^ell and sum_i (C(k,i)(k-i)!)^ell vs brute force", ok)
    ]


def check_closed_form_layered(prof: Profile, record: Record) -> list[CheckResult]:
    ok = True
    for k in range(1, prof.layered_max_k + 1):
        for ell in range(2, prof.layered_max_ell + 1):
            g = digraph.build_blowup(k, ell)
            ok &= oracles.closed_form_counts(k, ell) == record(counting.count_layered(g))
    return [CheckResult("closed-form counts vs layered transfer counter", ok)]


def cross_check_graphs(prof: Profile) -> Iterator[digraph.SampledSubgraph]:
    """The random subgraphs of check_counters, one per shape of the
    profile's cross_shapes, each with a seeded edge count."""
    for t, (k, ell) in enumerate(prof.cross_shapes):
        base = digraph.build_blowup(k, ell)
        s = experiment.derive_seed(prof.cross_seed, t)
        m = experiment.derive_seed(s, 0) % (base.edge_count + 1)
        yield digraph.sample_subgraph(base, m, s)


def check_counters(prof: Profile, record: Record) -> list[CheckResult]:
    ok = True
    for g in cross_check_graphs(prof):
        general = digraph.to_general(g)
        pm = counting.count_permanent(general)
        ok &= record(counting.count_layered(g)) == pm
        if general.n <= 9:
            ok &= oracles.count_bruteforce(general) == pm
    return [
        CheckResult(
            "layered = permanent = brute-force counts on random subgraphs",
            ok,
            f"{len(prof.cross_shapes)} graphs",
        )
    ]


def check_falling_ratio(prof: Profile, record: Record) -> list[CheckResult]:
    ok = True
    amax = prof.fact1_max_a
    for a in range(amax + 1):
        for b in range(a + 1):
            for x in range(b + 1):
                rhs = Fraction(math.comb(a - x, b - x), math.comb(a, b))
                ok &= oracles.falling_ratio_exact(a, b, x) == rhs
    errs = []
    for k in (4, 8, 16):
        cp = params.plan(0.3, k)
        a, b, x = digraph.blowup_edge_count(k, cp.ell), cp.m, k * cp.ell
        # E[Y] reads the production binomial walk from x = k*ell down to 0
        ok &= moments.expected_y_exact(k, cp.ell, b) == sum(
            (math.comb(k, i) * math.factorial(k - i)) ** cp.ell
            * oracles.falling_ratio_exact(a, b, (k - i) * cp.ell)
            for i in range(k + 1)
            if (k - i) * cp.ell <= b
        )
        exact = float(oracles.falling_ratio_exact(a, b, x))
        errs.append(abs(oracles.falling_ratio_asymptotic(a, b, x) / exact - 1.0))
    return [
        CheckResult(f"(b)_x/(a)_x equals binomial ratio C(a-x,b-x)/C(a,b), a <= {amax}", ok),
        CheckResult(
            "falling-ratio asymptotic error decreases at each k-doubling",
            errs[0] > errs[1] > errs[2],
            f"errors {errs}",
        ),
    ]


def check_h(prof: Profile, record: Record) -> list[CheckResult]:
    ok = True
    for a, row in enumerate(series.h_table(prof.h_oracle_max_a)):
        for b, h in enumerate(row):
            ok &= h == oracles.h_exact(a, b) == oracles.h_bruteforce(a, b)
            ok &= 0 <= h <= math.factorial(a)
    errs = [oracles.h_window_error(a) for a in (10, 20, 40)]
    return [
        CheckResult("h(a,b) inclusion-exclusion vs forbidden-matching enumeration", ok),
        CheckResult(
            "h(a,b) ~ a!/e window error decreases over a in {10, 20, 40}",
            errs[0] > errs[1] > errs[2],
            f"errors {errs}",
        ),
    ]


def check_solver(prof: Profile, record: Record) -> list[CheckResult]:
    n = prof.solver_grid
    ok = True
    for t in range(n):
        r = 0.01 + (0.49 - 0.01) * t / (n - 1)
        ell = params.choose_ell(r)
        p, x = params.solve_p(r, ell)
        ok &= abs(series.f_eval(ell, 1.0 / p).value * r - 1.0) <= 1e-9
        ok &= 0.0 < p < 1.0 and x > 1.0
    ok &= params.choose_ell(0.3) == 2 and params.choose_ell(0.45) == 3
    return [CheckResult(f"root solver residual |f_ell(1/p) r - 1| <= 1e-9 on {n}-point grid", ok)]


def law_mean(law: Counter[CountPair], f: Callable[[int, int], int]) -> Fraction:
    """E[f(X, Y)] under a law of (X, Y), such as `oracles.exact_law`'s."""
    return Fraction(sum(f(c.derangements, c.permutations) * w for c, w in law.items()), law.total())


def check_moments(prof: Profile, record: Record) -> list[CheckResult]:
    ok = True
    for k, ell in prof.moment_shapes:
        for m in range(digraph.blowup_edge_count(k, ell) + 1):
            law = oracles.exact_law(k, ell, m)
            ok &= moments.expected_x_exact(k, ell, m) == law_mean(law, lambda x, y: x)
            ok &= moments.expected_y_exact(k, ell, m) == law_mean(law, lambda x, y: y)
            ok &= moments.second_moment_x_exact(k, ell, m) == law_mean(law, lambda x, y: x * x)
            ok &= moments.second_moment_y_upper(k, ell, m) >= law_mean(law, lambda x, y: y * y)
    # frozen spot values
    ok &= moments.expected_x_exact(2, 2, 6) == Fraction(6, 7)
    ok &= moments.expected_y_exact(2, 2, 6) == 4
    return [CheckResult("moment formulas vs exhaustive subgraph enumeration", ok)]


CHECKS = (
    check_closed_form_bruteforce,
    check_closed_form_layered,
    check_counters,
    check_falling_ratio,
    check_h,
    check_solver,
    check_moments,
)


def verify_all(profile: str = "small") -> VerifySummary:
    """Run every check in CHECKS at the named profile, then the ratio bound
    over every count the checks recorded."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; expected one of {sorted(PROFILES)}")
    violations = []

    def record(counts: CountPair) -> CountPair:
        if not ratio_bound_holds(counts):
            violations.append(counts)
        return counts

    summary = VerifySummary(profile=profile)
    for check in CHECKS:
        summary.checks += check(PROFILES[profile], record)
    summary.checks.append(
        CheckResult("every counted graph satisfies 2X <= Y and Y >= X + 1", not violations)
    )
    return summary
