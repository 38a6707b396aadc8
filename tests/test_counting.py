import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpratio.counting import (
    CountPair,
    closed_form_counts,
    count,
    count_bruteforce,
    count_layered,
    count_permanent,
    permanent,
    _layer_minors,
)
from dpratio.digraph import (
    Digraph,
    SampledSubgraph,
    build_blowup,
    sample_subgraph,
    to_general,
)
from dpratio.experiment import derive_seed, run_mc
from dpratio.params import plan


def random_digraph(n: int, density: float, rng: random.Random) -> Digraph:
    edges = frozenset(
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and rng.random() < density
    )
    return Digraph(n=n, edges=edges)


def test_bruteforce_directed_cycle():
    assert count_bruteforce(to_general(build_blowup(1, 3))).derangements == 1
    assert count_bruteforce(to_general(build_blowup(1, 3))).permutations == 2


def test_bruteforce_single_vertex():
    c = count_bruteforce(Digraph(n=1, edges=frozenset()))
    assert (c.derangements, c.permutations) == (0, 1)


def test_bruteforce_d22():
    c = count_bruteforce(to_general(build_blowup(2, 2)))
    assert (c.derangements, c.permutations) == (4, 9)


def test_bruteforce_size_limit():
    with pytest.raises(ValueError):
        count_bruteforce(Digraph(n=11, edges=frozenset()))


ORACLES = (count_bruteforce, count_permanent)

#: (n, density, edge count, X, Y) of random_digraph(n, density, rng) drawn in
#: this order from one random.Random(20210): frozen values, recorded once with
#: the n!-bijection brute force and the two-pass Ryser counter that preceded
#: the current oracles, and never recomputed from them
FROZEN_RANDOM_DIGRAPHS = [
    (1, 0.5, 0, 0, 1), (2, 0.5, 2, 1, 2), (2, 1.0, 2, 1, 2), (3, 0.3, 3, 1, 2),
    (3, 0.8, 6, 2, 6), (4, 0.15, 1, 0, 1), (4, 0.5, 6, 1, 4), (4, 0.9, 8, 0, 6),
    (5, 0.3, 7, 0, 3), (5, 0.6, 14, 8, 28), (5, 1.0, 20, 44, 120), (6, 0.2, 1, 0, 1),
    (6, 0.5, 12, 1, 9), (6, 0.8, 26, 97, 330), (7, 0.3, 12, 0, 11), (7, 0.6, 28, 88, 419),
    (8, 0.15, 5, 0, 1), (8, 0.4, 32, 92, 705), (8, 0.7, 42, 1436, 5554), (9, 0.2, 14, 0, 8),
    (9, 0.35, 25, 15, 186), (9, 0.5, 35, 104, 1229),
]

#: (t, m, X, Y) of the (8, 2) subgraphs that `verify --profile tiny` counts
#: (check_counters graph t, seed 12345), frozen from the same earlier counters
FROZEN_TINY_8_2 = [
    (7, 118, 424483200, 1097611624),
    (15, 41, 0, 496),
    (23, 51, 104, 7366),
    (31, 68, 39325, 376520),
    (39, 86, 833250, 5240203),
    (47, 93, 6279000, 27565857),
]


@pytest.mark.parametrize("counter", ORACLES)
def test_oracles_complete_digraph(counter):
    # K_n: every bijection is a permutation, Y = n! and X = !n
    subfactorials = [1, 0, 1, 2, 9, 44, 265, 1854, 14833]
    for n, der in enumerate(subfactorials):
        g = Digraph(n=n, edges=frozenset((u, v) for u in range(n) for v in range(n) if u != v))
        assert counter(g) == CountPair(der, math.factorial(n))


@pytest.mark.parametrize("counter", ORACLES)
def test_oracles_directed_cycle_and_edgeless(counter):
    for n in range(2, 10):
        cycle = Digraph(n=n, edges=frozenset((v, (v + 1) % n) for v in range(n)))
        assert counter(cycle) == CountPair(1, 2)
    for n in range(1, 11):
        assert counter(Digraph(n=n, edges=frozenset())) == CountPair(0, 1)


@pytest.mark.parametrize("counter", ORACLES)
def test_oracles_frozen_random_digraphs(counter):
    rng = random.Random(20210)
    for n, density, edge_count, der, per in FROZEN_RANDOM_DIGRAPHS:
        g = random_digraph(n, density, rng)
        assert g.edge_count == edge_count
        assert counter(g) == CountPair(der, per)


def test_permanent_frozen_tiny_8_2_subgraphs():
    base = build_blowup(8, 2)
    for t, m, der, per in FROZEN_TINY_8_2:
        s = derive_seed(12345, t)
        assert derive_seed(s, 0) % (base.edge_count + 1) == m
        g = to_general(sample_subgraph(base, m, s))
        assert count_permanent(g) == CountPair(der, per)


def test_permanent_all_ones():
    # row sums reach n, the most a byte of the packed row sums holds here
    for n in range(13):
        assert permanent([[1] * n for _ in range(n)]) == math.factorial(n)


def test_permanent_size_limit():
    with pytest.raises(ValueError):
        permanent([[0] * 31 for _ in range(31)])
    with pytest.raises(ValueError):
        count_permanent(Digraph(n=31, edges=frozenset()))


def test_permanent_basics():
    assert permanent([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert permanent([[1, 1, 1], [1, 1, 1], [1, 1, 1]]) == 6
    assert permanent([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 2
    assert permanent([]) == 1


def test_permanent_matches_naive_expansion():
    import itertools

    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(1, 6)
        mat = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
        naive = sum(
            math.prod(mat[i][s[i]] for i in range(n))
            for s in itertools.permutations(range(n))
        )
        assert permanent(mat) == naive


def test_count_permanent_examples():
    assert count_permanent(to_general(build_blowup(1, 3))) == count_bruteforce(
        to_general(build_blowup(1, 3))
    )
    c = count_permanent(to_general(build_blowup(2, 2)))
    assert (c.derangements, c.permutations) == (4, 9)
    c = count_permanent(Digraph(n=5, edges=frozenset()))
    assert (c.derangements, c.permutations) == (0, 1)


def test_oracle_agreement_random_digraphs():
    # brute force vs permanent on 200 random digraphs, mixed densities
    rng = random.Random(31337)
    for t in range(200):
        n = rng.randrange(1, 9)
        density = rng.choice([0.15, 0.3, 0.5, 0.8])
        g = random_digraph(n, density, rng)
        bf = count_bruteforce(g)
        pm = count_permanent(g)
        assert bf == pm
        assert pm.permutations >= pm.derangements + 1
        assert 2 * pm.derangements <= pm.permutations


def test_layered_agreement_random_subgraphs():
    # layered vs permanent on 100 random blow-up subgraphs with k*ell <= 16
    shapes = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (3, 4), (4, 4), (8, 2)]
    rng = random.Random(99)
    for t in range(100):
        k, ell = shapes[t % len(shapes)]
        base = build_blowup(k, ell)
        m = rng.randrange(base.edge_count + 1)
        g = sample_subgraph(base, m, derive_seed(555, t))
        assert count_layered(g) == count_permanent(to_general(g))


def test_layered_full_d22():
    c = count_layered(build_blowup(2, 2).full_subgraph())
    assert (c.derangements, c.permutations) == (4, 9)


def test_layered_zero_matching_layer():
    base = build_blowup(3, 2)
    # keep only layer-1 edges: layer 0 has no perfect matching
    g = SampledSubgraph.from_edge_indices(base, range(9, 18))
    assert count_layered(g).derangements == 0


def test_layered_empty_subgraph():
    base = build_blowup(3, 2)
    g = sample_subgraph(base, 0, 0)
    c = count_layered(g)
    assert (c.derangements, c.permutations) == (0, 1)


def test_layered_size_limit():
    with pytest.raises(ValueError):
        count_layered(build_blowup(13, 2).full_subgraph())


def test_closed_form_examples():
    assert closed_form_counts(1, 3).derangements == 1
    assert closed_form_counts(1, 3).permutations == 2
    assert closed_form_counts(2, 2) == count_bruteforce(to_general(build_blowup(2, 2)))
    c = closed_form_counts(2, 3)
    assert (c.derangements, c.permutations) == (8, 17)


def test_closed_form_vs_layered_grid():
    shapes = [(k, ell) for k in range(1, 7) for ell in range(2, 5)]
    shapes += [(k, 2) for k in range(7, 11)]
    # ell >= 5: the trace takes two or more dense products before its diagonal sum
    shapes += [(k, ell) for k in range(1, 4) for ell in (5, 6)]
    for k, ell in shapes:
        assert closed_form_counts(k, ell) == count_layered(
            build_blowup(k, ell).full_subgraph()
        )


def test_layer_minors_match_permanents():
    # one matching DP per layer lists, for every i, the Ryser permanent of
    # each minor keeping rows outside F and columns outside F' with |F| = i
    rng = random.Random(2024)
    for t in range(40):
        k = rng.randrange(1, 7)
        density = rng.choice([0.0, 0.2, 0.5, 0.8, 1.0])
        rows = [
            sum(1 << j for j in range(k) if rng.random() < density) for _ in range(k)
        ]
        if t % 4 == 1:
            rows[rng.randrange(k)] = 0  # an empty row
        full = (1 << k) - 1
        by_fixed = _layer_minors(rows, k)
        assert len(by_fixed) == k + 1
        for i, minors in enumerate(by_fixed):
            fixed_sets = [f for f in range(1 << k) if f.bit_count() == i]
            for key in minors:
                assert (key >> k).bit_count() == i
                assert (key & full).bit_count() == k - i
            for f_rows in fixed_sets:
                keep_rows = [r for r in range(k) if not (f_rows >> r) & 1]
                for f_cols in fixed_sets:
                    keep_cols = [j for j in range(k) if not (f_cols >> j) & 1]
                    minor = [[(rows[r] >> j) & 1 for j in keep_cols] for r in keep_rows]
                    key = (f_rows << k) | (full & ~f_cols)
                    assert minors.get(key, 0) == permanent(minor)


def test_layered_frozen_mc_ell2_trials():
    # (X, Y) of trials 0-3 of run_mc(plan(0.3, 8), 4, seed=0), ell = 2, m = 102:
    # frozen values, recorded once and never recomputed from the counter
    cp = plan(0.3, 8)
    assert (cp.k, cp.ell, cp.m) == (8, 2, 102)
    frozen = [
        (32658840, 117349013),
        (26202330, 97892750),
        (41402336, 140268986),
        (34431984, 119598932),
    ]
    report = run_mc(cp, 4, seed=0)  # trial t counts with count_layered
    assert [(x, y) for _, x, y, _ in report.per_trial] == frozen


def test_closed_form_ratio():
    assert closed_form_counts(1, 2).ratio() == Fraction(1, 2)
    assert closed_form_counts(1, 5).ratio() == Fraction(1, 2)
    assert closed_form_counts(2, 2).ratio() == Fraction(4, 9)


@given(k=st.integers(1, 6), ell=st.integers(2, 5))
def test_closed_form_ratio_identity(k, ell):
    # 1 / sum_i (1/i!)^ell as an exact rational
    inv = sum(Fraction(1, math.factorial(i)) ** ell for i in range(k + 1))
    assert closed_form_counts(k, ell).ratio() == 1 / inv


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), data=st.data())
def test_monotone_in_edges(seed, data):
    # adding one edge never decreases either count
    k = data.draw(st.integers(2, 3))
    ell = data.draw(st.integers(2, 3))
    base = build_blowup(k, ell)
    m = data.draw(st.integers(0, base.edge_count - 1))
    g = sample_subgraph(base, m, seed)
    present = set()
    for c, rows in enumerate(g.layers):
        for i, row in enumerate(rows):
            r = row
            while r:
                j = (r & -r).bit_length() - 1
                present.add(c * k * k + i * k + j)
                r &= r - 1
    missing = [e for e in range(base.edge_count) if e not in present]
    new_edge = missing[data.draw(st.integers(0, len(missing) - 1))]
    g2 = SampledSubgraph.from_edge_indices(base, sorted(present) + [new_edge])
    c1, c2 = count_layered(g), count_layered(g2)
    assert c2.derangements >= c1.derangements
    assert c2.permutations >= c1.permutations


def test_count_dispatch():
    # the graph picks the counter: layered for a blow-up subgraph, Ryser
    # for a general digraph
    g = sample_subgraph(build_blowup(2, 2), 5, 3)
    ref = count_layered(g)
    assert count(g) == ("layered", ref)
    assert count(to_general(g)) == ("permanent", ref)
    full = build_blowup(3, 4).full_subgraph()
    assert count(full) == ("layered", closed_form_counts(3, 4))
    assert count(to_general(full)) == ("permanent", closed_form_counts(3, 4))
