import itertools
import math
import os
import random
import struct
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpratio
from dpratio import layered
from dpratio.counting import (
    LAYERED_MAX_K,
    CountPair,
    count,
    count_layered,
    count_permanent,
)
from dpratio.digraph import (
    Digraph,
    SampledSubgraph,
    build_blowup,
    sample_subgraph,
    to_general,
)
from dpratio.experiment import derive_seed, run_mc
from dpratio.layered import _layer_tables, _layout
from dpratio.oracles import closed_form_counts, count_bruteforce
from dpratio.packed import _CODES, field_width
from dpratio.params import plan


def field_bytes(k: int) -> int:
    # bytes per field of a layer table at part size k, as count_layered sizes it
    return field_width(math.factorial(k))


def layer_tables(rows, k: int) -> list[int]:
    # the packed tables of one layer, one int per fixed set F: each chunk of
    # _layer_tables split into the tables of the chunk's fixed sets, table F
    # being the chunk's fields with |U| = k - |F|; the tables must add back
    # up to the chunk, so a field outside every table of its chunk is 0
    nbytes = field_bytes(k)
    chunks = _layer_tables(rows, k, nbytes)
    sets = _layout(k)[1]
    assert len(chunks) == len(sets)
    sized = size_masks(k, nbytes)
    tables = [None] * (1 << k)
    for chunk, fixed in zip(chunks, sets):
        for f in fixed:
            tables[f] = chunk & sized[k - f.bit_count()]
        assert sum(tables[f] for f in fixed) == chunk
    assert None not in tables
    return tables


def size_masks(k: int, nbytes: int) -> list[int]:
    # mask s has all ones in the fields U of one table with |U| = s
    return [
        int.from_bytes(
            b"".join((b"\xff" if u.bit_count() == s else b"\x00") * nbytes for u in range(1 << k)),
            "little",
        )
        for s in range(k + 1)
    ]


def table_fields(table: int, k: int) -> list[int]:
    # the 2^k counts of one packed layer table, field U in bits U*W .. U*W + W - 1
    width = 8 * field_bytes(k)
    assert table >> (width << k) == 0  # nothing past field 2^k - 1
    return [(table >> (width * u)) & ((1 << width) - 1) for u in range(1 << k)]


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
#: the current counters, and never recomputed from them
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


def test_count_permanent_complete_digraph():
    # K_n gives (!n, n!); every row of A + I has n ones, so the signed row
    # sums of the Glynn kernel reach +-n, the widest a digraph makes them
    subfactorials = [1, 0, 1, 2, 9, 44, 265, 1854, 14833, 133496, 1334961, 14684570, 176214841]
    for n, der in enumerate(subfactorials):
        g = Digraph(n=n, edges=frozenset((u, v) for u in range(n) for v in range(n) if u != v))
        assert count_permanent(g) == CountPair(der, math.factorial(n))


def test_permanent_size_limit():
    with pytest.raises(ValueError):
        count_permanent(Digraph(n=31, edges=frozenset()))


def test_count_permanent_matches_bruteforce_n9_n10():
    # from n = 10 the outer Gray walk runs beside the 8-sign batch
    rng = random.Random(2010)
    for n in (9, 10):
        for density in (0.1, 0.25, 0.4, 0.55):
            g = random_digraph(n, density, rng)
            assert count_permanent(g) == count_bruteforce(g)


def test_count_permanent_frozen_n18():
    # random_digraph(18, 0.4, random.Random(18)): frozen values, recorded
    # once with the Ryser counter that preceded the Glynn kernel, and never
    # recomputed from it; 2^9 steps of the outer walk
    g = random_digraph(18, 0.4, random.Random(18))
    assert g.edge_count == 121
    assert count_permanent(g) == CountPair(43970620, 786246624)


#: (n, density, edge count, X, Y) of random_digraph(n, density, rng) drawn in
#: this order from one random.Random(2517): frozen values, recorded once
#: with the Glynn kernel that found zero-sum blocks by byte-wise arithmetic
#: over every block, before the per-row lookup replaced it
FROZEN_N17_TO_N20 = [
    (17, 0.1, 25, 0, 4),
    (17, 0.6, 156, 5408177201, 36682808812),
    (18, 0.25, 73, 0, 194538),
    (18, 0.9, 272, 269008182228851, 832421370294072),
    (19, 0.15, 68, 76, 160146),
    (19, 0.45, 151, 3480303802, 41564822173),
    (20, 0.2, 66, 0, 38262),
    (20, 0.35, 138, 475605140, 10049414312),
]


def test_count_permanent_frozen_n17_to_n20():
    rng = random.Random(2517)
    for n, density, edge_count, der, per in FROZEN_N17_TO_N20:
        g = random_digraph(n, density, rng)
        assert g.edge_count == edge_count
        assert count_permanent(g) == CountPair(der, per)


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


def test_layered_full_d22():
    c = count_layered(build_blowup(2, 2))
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
        count_layered(build_blowup(13, 2))


def test_layered_k1_every_edge_subset():
    # k = 1 has no middle size: the counts are the two closed-form end
    # terms, (1, 2) with the whole ell-cycle present and (0, 1) otherwise
    for ell in range(2, 6):
        base = build_blowup(1, ell)
        for kept in range(1 << ell):
            g = SampledSubgraph.from_edge_indices(base, [e for e in range(ell) if kept >> e & 1])
            expected = CountPair(1, 2) if kept == (1 << ell) - 1 else CountPair(0, 1)
            assert count_layered(g) == count_permanent(to_general(g)) == expected


def test_layered_merged_chunks_one_byte_fields():
    # at k <= 5 a field is one byte and the 2^k tables of a layer end added
    # into C(k, floor(k/2)) chunks, fixed sets of different sizes sharing
    # one.  The full blow-ups at ell = 2..4 and subgraphs of them must count
    # as the closed form or the permanent does; every ell >= 3 count, at
    # every k, reads vectors from its chunks
    rng = random.Random(2727)
    graphs = []
    for k in range(1, 6):
        assert field_bytes(k) == 1
        for ell in (2, 3, 4):
            base = build_blowup(k, ell)
            assert len(_layer_tables(base.layers[0], k, 1)) == math.comb(k, k // 2)
            graphs.append((base, closed_form_counts(k, ell)))
            for _ in range(3):
                g = sample_subgraph(base, rng.randrange(base.edge_count + 1), rng.randrange(1 << 30))
                graphs.append((g, count_permanent(to_general(g))))
    assert {g.k for g, _ in graphs if g.ell >= 3} == set(range(1, 6))
    for g, expected in graphs:
        assert count_layered(g) == expected


def test_layered_big_endian_field_order(monkeypatch):
    # the counts do not depend on the machine's byte order: chunks and
    # packed columns are unpacked little-endian whatever sys.byteorder
    # says, so with it set to "big" every count must equal the permanent.
    # Nothing in the library reads sys.byteorder, so one pass under "big"
    # guards against a native-order reader coming back.  At k <= 5 a field
    # is one byte; only ell >= 3 reads vectors from chunks (ell = 2 takes
    # none), and every ell drawn here is 3 or 4, which the test pins
    rng = random.Random(1955)
    graphs = []
    for k in range(2, 6):
        assert field_bytes(k) == 1
        base = build_blowup(k, rng.choice([2, 3, 4]))
        for _ in range(8):
            g = sample_subgraph(base, rng.randrange(base.edge_count + 1), rng.randrange(1 << 30))
            graphs.append((g, count_permanent(to_general(g))))
    assert all(g.ell >= 3 for g, _ in graphs)
    monkeypatch.setattr(sys, "byteorder", "big")
    for g, expected in graphs:
        assert count_layered(g) == expected


def test_layered_middle_size_dies_in_second_layer():
    # k = 3, ell = 3: layers 0 and 2 full, layer 1 the one edge 0 -> 0.  Every
    # 2 x 2 minor of layer 1 has permanent 0, so size i = 1 adds nothing from
    # the second layer on (its packed columns are all 0), while size 2 (one
    # edge per minor) goes on: Y = 1 + 3
    k, ell = 3, 3
    base = build_blowup(k, ell)
    layer_one_edge = k * k  # index of part-1 vertex 0 -> part-2 vertex 0
    g = SampledSubgraph.from_edge_indices(
        base, [*range(k * k), layer_one_edge, *range(2 * k * k, 3 * k * k)]
    )
    size_one = [(f, ((1 << k) - 1) ^ fc) for f in (1, 2, 4) for fc in (1, 2, 4)]
    first, second = layer_tables(g.layers[0], k), layer_tables(g.layers[1], k)
    assert any(table_fields(first[f], k)[u] for f, u in size_one)
    assert not any(table_fields(second[f], k)[u] for f, u in size_one)
    assert count_layered(g) == count_permanent(to_general(g)) == CountPair(0, 4)


@pytest.mark.skipif(sys.platform != "linux", reason="VmHWM of /proc/self/status is Linux only")
def test_layered_k12_peak_rss():
    # one count of the full k = LAYERED_MAX_K = 12, ell = 2 blow-up, the
    # largest size count_layered admits, in a fresh process.  The peak sits
    # at the first layer's last row, and again at the first row of the
    # transposed walk: the 924 chunks after that row, of 4096 4-byte fields
    # (16 KB) each, about 15 MB beside the interpreter, the cached layout
    # and masks (about 20 MB); measured 35.4-35.5 MB (Linux x86-64, CPython
    # 3.11, about 0.21 s).  The walk drops each chunk once read, and its
    # wider rows hold few chunks, C(t, floor(t/2)) before row t: at most 70
    # at 5 bytes, 10 at 6 and 3 at 7 or 8.  The bound is 10% over 35.5 MB,
    # 39.1 MB, so keeping one more layer's chunks (about 15 MB), or running
    # the first layer at 8-byte fields, fails it.  The peak read is the
    # child's VmHWM, in KiB, that of its own memory since exec: its
    # ru_maxrss also keeps the peak of the memory it ran in before exec, the
    # test process's own when spawned by vfork, and the suite's process
    # grows past 57 MB
    assert LAYERED_MAX_K == 12
    src = os.path.dirname(os.path.dirname(dpratio.__file__))
    probe = (
        "from dpratio.counting import count_layered; "
        "from dpratio.digraph import build_blowup; "
        "c = count_layered(build_blowup(12, 2)); "
        "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')); "
        "print(c.derangements, c.permutations, hwm.split()[1])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert CountPair(int(out[0]), int(out[1])) == closed_form_counts(12, 2)
    assert int(out[2]) / 1024 <= 1.1 * 35.5


def test_closed_form_examples():
    assert closed_form_counts(1, 3).derangements == 1
    assert closed_form_counts(1, 3).permutations == 2
    assert closed_form_counts(2, 2) == count_bruteforce(to_general(build_blowup(2, 2)))
    c = closed_form_counts(2, 3)
    assert (c.derangements, c.permutations) == (8, 17)


def test_closed_form_vs_layered_grid():
    shapes = [(k, ell) for k in range(1, 7) for ell in range(2, 5)]
    shapes += [(k, 2) for k in range(7, 11)]
    # ell >= 5: three or more packed column products before the closing dots;
    # at k = 8, ell = 6 the packed fields are 10 bytes, past every struct code
    shapes += [(k, ell) for k in range(1, 9) for ell in (5, 6)]
    assert field_width(math.comb(8, 1) ** 4 * math.factorial(7) ** 5) == 10
    for k, ell in shapes:
        assert closed_form_counts(k, ell) == count_layered(build_blowup(k, ell))


def naive_permanent(mat) -> int:
    n = len(mat)
    return sum(
        math.prod(mat[i][s[i]] for i in range(n)) for s in itertools.permutations(range(n))
    )


def test_field_width_bounds():
    # the one width rule of every packed field: the fewest of 1, 2, 4 and 8
    # bytes that hold the bound, whole bytes past 8
    bounds = [0, 1, 255, 256, 2**16, 2**32, 2**64 - 1, 2**64, 2**72]
    assert [field_width(b) for b in bounds] == [1, 1, 1, 2, 4, 8, 8, 9, 10]


def test_codes_have_their_widths():
    # each code is its width as a standard struct size (pack, unpack)
    assert sorted(_CODES) == [1, 2, 4, 8]
    for n, c in _CODES.items():
        assert struct.calcsize("<" + c) == n


@pytest.mark.parametrize("nbytes", [8, 9, 16])
def test_layered_forced_wide_fields(monkeypatch, nbytes):
    # the 8-byte width (k = 13..20) and two wider ones, past any struct
    # code, at small k: at ell >= 3 every field of every table, and of every
    # packed column, nbytes wide, the tables unpacked through typecode "Q"
    # at 8 bytes and by byte slices past it (ell = 2 sizes its fields by
    # _walk_widths, not field_width); the counts must not change
    rng = random.Random(1313)
    graphs = []
    for k in range(1, 6):
        for ell in (2, 3, 4):
            base = build_blowup(k, ell)
            graphs.append((base, closed_form_counts(k, ell)))
            for _ in range(3):
                m = rng.randrange(base.edge_count + 1)
                g = sample_subgraph(base, m, rng.randrange(1 << 30))
                graphs.append((g, count_layered(g)))
    monkeypatch.setattr(layered, "field_width", lambda bound: nbytes)
    assert _CODES.get(nbytes) == ("Q" if nbytes == 8 else None)
    for g, expected in graphs:
        assert count_layered(g) == expected
        rows = g.layers[0]
        assert _layer_tables(rows, g.k, nbytes) == [
            int.from_bytes(b"".join(v.to_bytes(nbytes, "little") for v in fields), "little")
            for fields in chunk_fields(layer_tables(rows, g.k), g.k)
        ]


def chunk_fields(tables, k: int) -> list[list[int]]:
    # the fields of the tables grouped as the chunks hold them: the fields
    # of the chunk's fixed sets added
    fields = [table_fields(table, k) for table in tables]
    return [[sum(vs) for vs in zip(*(fields[f] for f in fs))] for fs in _layout(k)[1]]


#: (X, Y) of trials 0-3 of run_mc(plan(0.3, 8), 4, seed=0), ell = 2, m = 102:
#: frozen values, recorded once and never recomputed from the counter
FROZEN_MC_ELL2 = [
    (32658840, 117349013),
    (26202330, 97892750),
    (41402336, 140268986),
    (34431984, 119598932),
]


def test_layered_frozen_mc_ell2_trials():
    cp = plan(0.3, 8)
    assert (cp.k, cp.ell, cp.m) == (8, 2, 102)
    report = run_mc(cp, 4, seed=0)  # trial t counts with count_layered
    assert [(x, y) for _, x, y, _ in report.per_trial] == FROZEN_MC_ELL2


def test_layered_interleaved_k():
    # kept column masks are keyed by k: counting in an order that changes k
    # at every step gives the permanent's counts, and the k=8 graphs are mc trials
    # 0-2 of test_layered_frozen_mc_ell2_trials with their frozen counts
    base8 = build_blowup(8, 2)
    trial = 0
    for k in (8, 3, 8, 1, 5, 8):
        if k == 8:
            g = sample_subgraph(base8, 102, derive_seed(0, trial))
            assert count_layered(g) == CountPair(*FROZEN_MC_ELL2[trial])
            trial += 1
        else:
            base = build_blowup(k, 3)
            g = sample_subgraph(base, base.edge_count * 2 // 3, k)
        assert count_layered(g) == count_permanent(to_general(g))


#: (k, ell, m, seed, X, Y) of sample_subgraph(build_blowup(k, ell), m, seed),
#: m that of plan(0.3, k) at ell = 2 and of plan(0.45, k) at ell = 3, seed
#: 2700 + k: frozen values, recorded once and never recomputed from the
#: counter.  k = 9..11 were recorded when the layer tables kept one chunk
#: per 2^g fixed sets, before chunks of different sizes were added
#: together; k = 5..8 when chunks still held 2^g slots of one table each
#: (g = 3..5) beside that merge, before the slots were dropped
FROZEN_K5_TO_K11 = [
    (5, 2, 40, 2705, 1564, 5196),
    (5, 3, 73, 2705, 1105920, 2496052),
    (6, 2, 57, 2706, 12672, 56132),
    (6, 3, 106, 2706, 259200000, 573960255),
    (7, 2, 78, 2707, 663080, 2370684),
    (7, 3, 144, 2707, 80994816000, 180079184916),
    (8, 2, 102, 2708, 37202688, 127075045),
    (8, 3, 188, 2708, 38535243264000, 85530288755993),
    (9, 2, 129, 2709, 1346756544, 4991542770),
    (9, 3, 237, 2709, 23351589273600000, 52279915795909986),
    (10, 2, 159, 2710, 92638747080, 335988411551),
    (10, 3, 293, 2710, 22822579209830400000, 50877264547179191767),
    (11, 2, 192, 2711, 7088449076352, 25486440698250),
    (11, 3, 355, 2711, 29618152945326489600000, 65869965102910538481012),
]


def test_layered_frozen_k5_to_k11():
    for k, ell, m, seed, der, per in FROZEN_K5_TO_K11:
        g = sample_subgraph(build_blowup(k, ell), m, seed)
        assert count_layered(g) == CountPair(der, per)


def test_layered_frozen_mc_ell3_trials():
    # (X, Y) of trials 0-3 of run_mc(plan(0.45, 7), 4, seed=0), ell = 3, m = 144,
    # so the trace takes a dense product: frozen values, recorded once
    cp = plan(0.45, 7)
    assert (cp.k, cp.ell, cp.m) == (7, 3, 144)
    frozen = [
        (80994816000, 179697591767),
        (80994816000, 179697591767),
        (80621568000, 179425565910),
        (80994816000, 180079184916),
    ]
    report = run_mc(cp, 4, seed=0)
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
    # the graph picks the counter: layered for a blow-up subgraph, the
    # permanent for a general digraph
    g = sample_subgraph(build_blowup(2, 2), 5, 3)
    ref = count_layered(g)
    assert count(g) == ("layered", ref)
    assert count(to_general(g)) == ("permanent", ref)
    full = build_blowup(3, 4)
    assert count(full) == ("layered", closed_form_counts(3, 4))
    assert count(to_general(full)) == ("permanent", closed_form_counts(3, 4))
