import dataclasses
import functools
import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from dpratio.moments import (
    _edge_expectation,
    _pair_weights,
    _run_fields,
    expected_x_asymptotic,
    expected_x_exact,
    expected_y_asymptotic,
    expected_y_exact,
    moment_report,
    moment_report_for_plan,
    second_moment_x_exact,
    second_moment_y_upper,
)
from dpratio.oracles import closed_form_counts, falling_ratio_exact, h_exact
from dpratio.params import plan
from dpratio.series import f_eval


def test_edge_expectation_comb_walk():
    # one binomial walked down in x gives the per-term binomial sum exactly
    def per_term(k, ell, m, weights):
        total = k * k * ell
        num = sum(w * math.comb(total - x, m - x) for x, w in weights.items() if x <= m)
        return Fraction(num, math.comb(total, m))

    def y_weights(k, ell):
        return {
            (k - i) * ell: (math.comb(k, i) * math.factorial(k - i)) ** ell for i in range(k + 1)
        }

    rng = random.Random(7)
    cases = [(3, 2, 0), (3, 2, 18), (2, 3, 5), (4, 3, 11)]  # m = 0, m = T, x > m
    for k, ell, m in cases:
        total = k * k * ell
        sparse = {x: rng.randrange(1, 10**6) for x in rng.sample(range(total + 1), 5)}
        for weights in (y_weights(k, ell), sparse, {total: 3}, {0: 5}, {m + 1: 2}):
            assert _edge_expectation(k, ell, m, weights) == per_term(k, ell, m, weights)
    weights = y_weights(100, 2)
    assert _edge_expectation(100, 2, 6000, weights) == per_term(100, 2, 6000, weights)


def test_edge_expectation_kernel():
    # one weight of 1 at x gives P[x edges survive] = (m)_x / (T)_x, 0 for x > m
    for k, ell in [(1, 2), (2, 2), (3, 2), (2, 3)]:
        total = k * k * ell
        for m in range(total + 1):
            for x in range(total + 1):
                expect = falling_ratio_exact(total, m, x) if x <= m else 0
                assert _edge_expectation(k, ell, m, {x: 1}) == expect
    assert _edge_expectation(2, 2, 6, {4: 1}) == Fraction(360, 1680)
    for k, ell in [(0, 2), (2, 1)]:  # no such blow-up
        with pytest.raises(ValueError, match="must be >="):
            _edge_expectation(k, ell, 0, {0: 1})
    with pytest.raises(ValueError):
        expected_x_exact(2, 2, 9)  # m beyond the edge count
    with pytest.raises(ValueError):
        moment_report(2, 2, -1)


def test_expected_x_small_m_zero():
    assert expected_x_exact(2, 2, 3) == 0


def test_expected_x_spot_value():
    assert expected_x_exact(2, 2, 6) == Fraction(6, 7)


def test_expected_x_full_graph():
    for k, ell in [(2, 2), (3, 2), (2, 3)]:
        assert expected_x_exact(k, ell, k * k * ell) == math.factorial(k) ** ell


def test_expected_y_spot_value():
    assert expected_y_exact(2, 2, 6) == 4


def test_expected_y_empty_and_full():
    for k, ell in [(2, 2), (3, 2), (2, 3)]:
        assert expected_y_exact(k, ell, 0) == 1
        assert (
            expected_y_exact(k, ell, k * k * ell)
            == closed_form_counts(k, ell).permutations
        )


def test_ey_dominates_ex_and_monotone_in_m():
    for k, ell in [(2, 2), (3, 2), (2, 3)]:
        prev = Fraction(-1)
        for m in range(k * k * ell + 1):
            ex = expected_x_exact(k, ell, m)
            ey = expected_y_exact(k, ell, m)
            assert ey >= ex
            assert ex >= prev
            prev = ex


def test_second_moment_x_edge_cases():
    # m < k*ell: no derangement fits
    assert second_moment_x_exact(2, 2, 3) == 0
    # full graph: X is constant (k!)^ell
    for k, ell in [(2, 2), (3, 2), (2, 3)]:
        assert (
            second_moment_x_exact(k, ell, k * k * ell)
            == (math.factorial(k) ** ell) ** 2
        )


def test_second_moment_x_cauchy_schwarz():
    for k, ell in [(2, 2), (3, 2)]:
        for m in range(k * k * ell + 1):
            ex = expected_x_exact(k, ell, m)
            ex2 = second_moment_x_exact(k, ell, m)
            assert ex2 >= ex * ex
            if ex > 0:
                assert ex2 >= ex * max(ex, 1)


def test_second_moment_y_upper_basics():
    # m = 0: only the identity, E[Y^2] = 1
    for k, ell in [(2, 2), (3, 2)]:
        assert second_moment_y_upper(k, ell, 0) >= 1
        for m in range(k * k * ell + 1):
            ey = expected_y_exact(k, ell, m)
            assert second_moment_y_upper(k, ell, m) >= ey * ey


def _naive_power(coeffs, ell):
    out = [1]
    for _ in range(ell):
        prod = [0] * (len(out) + len(coeffs) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(coeffs):
                prod[i + j] += a * b
        out = prod
    return out


def _naive_pair_weights(k, ell, n):
    # the E[Y^2] pair sum one (i, j) at a time: g(t) over every t <= k, the
    # out-of-range binomials 0, its ell-th power by list convolution, and
    # the prefactor once per coefficient
    h = functools.cache(h_exact)
    weights = {}
    for i in range(n + 1):
        for j in range(n + 1):
            g = []
            for t in range(k + 1):
                c = math.comb(k - i, t) * math.comb(k - t, j)
                a = k - j - t
                g.append(c * h(a, min(a, max(0, k - i - t - 2 * j))) if c else 0)
            prefactor = (math.factorial(k) // math.factorial(i)) ** ell
            for b, coeff in enumerate(_naive_power(g, ell)):
                x = (2 * k - i - j) * ell - b
                weights[x] = weights.get(x, 0) + prefactor * coeff
    return {x: w for x, w in weights.items() if w}


def test_pair_weights_match_naive_pair_sum():
    # rows split into runs from (k, ell) = (6, 7), (7, 6), (8, 5), (9, 4) on; (9, 8): 3 a row;
    # the shapes past k = 9 hold series.h_table to h_exact further down the table
    shapes = [(k, ell, n) for k in range(1, 10) for ell in range(1, 9) for n in (0, k)]
    shapes += [(12, 2, 12), (14, 2, 0), (14, 3, 14)]
    for k, ell, n in shapes:  # n = 0: E[X^2]; n = k: the E[Y^2] bound
        total = k * k * ell  # m = T keeps every pair
        assert _pair_weights(k, ell, n, total) == _naive_pair_weights(k, ell, n), (k, ell, n)


def test_pair_weights_bounded_by_m():
    # the pairs left out at m weigh only unions of more than m edges: at
    # every m the kept weights up to m, and the moments, equal the full
    # ones (m = T); and the bound makes a small m cheap at a size whose full
    # pair sum takes about a minute
    for k in range(1, 6):
        for ell in range(2, 5):
            total = k * k * ell
            for n in (0, k):
                full = _pair_weights(k, ell, n, total)
                for m in range(total + 1):
                    weights = _pair_weights(k, ell, n, m)
                    assert {x: w for x, w in weights.items() if x <= m} == {
                        x: w for x, w in full.items() if x <= m
                    }, (k, ell, n, m)
                    assert _edge_expectation(k, ell, m, weights) == _edge_expectation(
                        k, ell, m, full
                    )
    start = time.perf_counter()
    second_moment_y_upper(25, 50, 5)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("moment", [second_moment_x_exact, second_moment_y_upper])
@pytest.mark.parametrize("m", [-1, 25 * 25 * 20 + 1])
def test_second_moments_refuse_m_before_the_pair_sum(moment, m):
    # past T the m bound of _pair_weights keeps every pair, whose sum at
    # (25, 20) takes seconds; the refusal must come first
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"need 0 <= m <= 12500, got m={m}"):
        moment(25, 20, m)
    assert time.perf_counter() - start < 0.1


def _naive_run(gs, ell):
    out = []
    for d, g in enumerate(gs):
        shifted = [0] * (ell * d) + _naive_power(g, ell)
        out = [a + b for a, b in itertools.zip_longest(out, shifted, fillvalue=0)]
    while out[-1] == 0:
        out.pop()
    return out


def test_run_fields_match_naive_convolution():
    rng = random.Random(16)
    groups = [
        [[1]],
        [[0, 1]],
        [[3, 0, 0, 5, 0, 7]],  # zeros inside
        [[0, 2**64 + 1, 0, 2**70 - 3, 1]],  # entries past 64 bits
        [[rng.randrange(2**90) for _ in range(9)]],
        [[rng.choice([0, 1, 255, 256, 2**63]) for _ in range(12)]],
        [[5, 0, 1], [0, 0, 0, 2], [7]],  # later lists longer, zero-led, shorter
        [[rng.randrange(2**40) for _ in range(rng.randrange(1, 8))] for _ in range(6)],
    ]
    for gs in groups:
        for ell in range(1, 9):
            assert list(_run_fields(gs, ell)) == _naive_run(gs, ell), (gs, ell)
    # the value at z = 1 on a byte boundary, reached by one field of one
    # list's power or of a sum of shifted powers (at 2^16 and the second
    # 2^24, each list's own power fits a narrower field than the sum);
    # a field one width step narrower carries.  Totals of 3 and 5 bytes
    # pack in 4- and 8-byte fields
    for gs, ell, top in [
        ([[0, 2**24 - 1, 0]], 1, 2**24 - 1),
        ([[0, 2**39], [2**39 - 1]], 1, 2**40 - 1),
        ([[255]], 1, 2**8 - 1),
        ([[0, 128], [127]], 1, 2**8 - 1),
        ([[0, 0, 2**16 - 1, 0]], 1, 2**16 - 1),
        ([[0, 2**8 - 1], [2**16 - 2**8]], 1, 2**16 - 1),
        ([[0, 16, 0]], 2, 2**8),
        ([[2**16]], 1, 2**16),
        ([[0, 2**15], [2**15]], 1, 2**16),
        ([[0, 2**8, 0, 0]], 3, 2**24),
        ([[0, 0, 0, 2**11], [0, 0, 2**11], [0, 2**11], [2**11]], 2, 2**24),
    ]:
        got = _run_fields(gs, ell)
        assert max(got) == top
        assert list(got) == _naive_run(gs, ell)


def _digest(q: Fraction) -> str:
    return hashlib.sha256(f"{q.numerator}/{q.denominator}".encode()).hexdigest()


# (E[X^2], E[Y^2] bound) as computed by the ell-fold convolution route
# before the packed power replaced it; larger values as SHA-256 digests of
# "numerator/denominator"
FROZEN_SECOND_MOMENTS = {
    (3, 2, 9): (Fraction(2556, 12155), Fraction(142237, 2431)),
    (4, 3, 30): (
        Fraction(704751902208, 1045457237),
        Fraction(242136292181380489, 456864812569),
    ),
    (8, 2, 102): (
        Fraction(61432943681685979766759946569994240, 54873877191147809971),
        Fraction(12210425516993090288853930572540599565896, 470892694314399774746595),
    ),
}
FROZEN_SECOND_MOMENT_DIGESTS = {
    (18, 3, 950): (
        "39da6541148c057da93fafb925f30343a83d58484431294e6dee4d47ad07effb",
        "322b726aa4164d0e068fbafc4c51e7c70316ea9ea54be375192992d274e69cc0",
    ),
    (25, 3, 1832): (
        "6b4c3cc215b1a4125703a3f80aa4c8ef43821a1e6ce0ece49d49b1fb132ff460",
        "f3cf60b942034598674d735f3fbdbf44ee18815f498402a5baf9cb13dddeed44",
    ),
    (12, 10, 1000): (
        "2b8d23b11eba8c9bc438980c573830885cd952b66092ac648f4331c1eda9fd97",
        "add42a4e84c658f95a835954d3547c09f793f8f9eac743488d35305174cfc73f",
    ),
    (8, 40, 1500): (
        "2b503d51cbea2b1b0a543c3b39f4ada1f52bb8d31b43dd84f3e240954484f5d2",
        "dd049351e535feecca4961f55780514b6503853edcbfa9eee8c2f415a6841d83",
    ),
    (3, 200, 1000): (
        "12792795c2d7ae3f9f2026a67a699218442ee5cf475bc0af3abefc4e278b34f0",
        "228e3aafaa9711b24ddde62ecc90f25fe8f4b0e77ab5ebae1550c7d55d58cb15",
    ),
    # rows of several runs each, recorded before the row-packed kernel
    (25, 6, 1875): (
        "7fb2f633b88e5aa04363a045f6923c9559bb8acceedb3ef65d71ff12dcc9c6ec",
        "8fd06384201c8b8dec9319f8a7b1c7bdbbe6392dee813d52a61bdec17c3bd136",
    ),
    (20, 8, 2000): (
        "3d5818c4ab4f0616b4c249997989415c7b049a64306c81fd0506a87b157c6d24",
        "f1055cbf427d37e66c59f01c6fb3e98b7e4463207cac1d357de56187bee51c4e",
    ),
}


def test_second_moments_frozen():
    for (k, ell, m), (ex2, ey2) in FROZEN_SECOND_MOMENTS.items():
        assert second_moment_x_exact(k, ell, m) == ex2
        assert second_moment_y_upper(k, ell, m) == ey2
    for (k, ell, m), digests in FROZEN_SECOND_MOMENT_DIGESTS.items():
        got = (second_moment_x_exact(k, ell, m), second_moment_y_upper(k, ell, m))
        assert tuple(map(_digest, got)) == digests, (k, ell, m)


def test_asymptotic_x_matches_full_graph():
    for k, ell in [(4, 2), (5, 3)]:
        asym = expected_x_asymptotic(k, ell, 1.0)
        assert math.exp(asym) == pytest.approx(float(math.factorial(k) ** ell))


def test_asymptotic_monotone_in_p():
    vals = [expected_x_asymptotic(5, 2, p) for p in (0.3, 0.5, 0.7, 0.9)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_asymptotic_xy_ratio_is_f():
    for r, k in [(0.3, 6), (0.2, 5)]:
        cp = plan(r, k)
        lx = expected_x_asymptotic(cp.k, cp.ell, cp.p)
        ly = expected_y_asymptotic(cp.k, cp.ell, cp.p)
        f = f_eval(cp.ell, 1.0 / cp.p).value
        assert math.exp(ly - lx) == pytest.approx(f, rel=1e-9)
        # by construction f_ell(1/p) = 1/r
        assert math.exp(lx - ly) == pytest.approx(r, rel=1e-8)


def test_exact_vs_asymptotic_converges():
    for moment, asym in [
        (expected_x_exact, expected_x_asymptotic),
        (expected_y_exact, expected_y_asymptotic),
    ]:
        errs = []
        for k in (4, 8, 16):
            cp = plan(0.3, k)
            exact = moment(cp.k, cp.ell, cp.m)
            log_exact = math.log(exact.numerator) - math.log(exact.denominator)
            # compare at the realized density: rounding m to an integer
            # perturbs p non-monotonically in k, which would mask the decay
            p_eff = cp.m / (cp.k * cp.k * cp.ell)
            errs.append(abs(math.exp(log_exact - asym(cp.k, cp.ell, p_eff)) - 1.0))
        assert errs[0] > errs[1] > errs[2]


def test_moment_report_fields():
    cp = plan(0.3, 6)
    rep = moment_report_for_plan(cp)
    assert rep.ratio_exact == expected_x_exact(cp.k, cp.ell, cp.m) / expected_y_exact(
        cp.k, cp.ell, cp.m
    )
    assert rep.x_concentration >= 0
    assert rep.y_concentration_bound >= 0
    assert rep.ex >= 0 and rep.ey >= rep.ex
    d = rep.to_json_dict()
    assert d["schema"] == 1
    assert list(d) == ["schema", *vars(rep)]
    header, row = rep.to_csv().splitlines()
    assert header == rep.CSV_COLUMNS
    assert len(row.split(",")) == len(rep.CSV_COLUMNS.split(","))


def test_float_past_range_raises_value_error():
    # `expect --k 3 --ell 400 --m 3600 --format csv` has E[X] = 6^400; the
    # report is built here from a small one, as that run takes seconds
    rep = dataclasses.replace(moment_report(2, 2, 6), ex=Fraction(6**400))
    rep.to_json_dict()  # JSON writes the exact value, no float
    with pytest.raises(ValueError, match="ex_float is past the float range"):
        rep.to_csv()


def test_moment_report_budget():
    with pytest.raises(ValueError):
        moment_report(30, 2, 100)


def test_report_trend_in_k():
    errs = []
    concs = []
    for k in (6, 12, 24):
        cp = plan(0.3, k)
        rep = moment_report_for_plan(cp)
        errs.append(abs(float(rep.ratio_exact) - 0.3))
        concs.append(rep.x_concentration)
    assert errs[0] > errs[1] > errs[2]
    assert concs[0] > concs[1] > concs[2]
