import hashlib
import itertools
import math
import os
import random
import struct
import subprocess
import sys
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpratio
from dpratio import counting
from dpratio.counting import (
    LAYERED_MAX_K,
    PERMANENT_MAX_N,
    CountPair,
    count,
    count_layered,
    count_permanent,
    _CODES,
    _chunk_plan,
    _column_products,
    _field_width,
    _glynn,
    _layer_tables,
    _pack,
    _readers,
    _unpack,
)
from dpratio.digraph import (
    Digraph,
    SampledSubgraph,
    build_blowup,
    sample_subgraph,
    to_general,
)
from dpratio.experiment import derive_seed, run_mc
from dpratio.oracles import closed_form_counts, count_bruteforce
from dpratio.params import plan


def field_bytes(k: int) -> int:
    # bytes per field of a layer table at part size k, as count_layered sizes it
    return _field_width(math.factorial(k))


def layer_tables(rows, k: int) -> list[int]:
    # the packed tables of one layer, one int per fixed set F: each chunk of
    # _layer_tables split into the tables of the chunk's fixed sets, table F
    # being the chunk's fields with |U| = k - |F|; the tables must add back
    # up to the chunk, so a field outside every table of its chunk is 0
    nbytes = field_bytes(k)
    chunks = _layer_tables(rows, k, nbytes)
    sets = _chunk_plan(k)[1]
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


def test_permanent_max_n_fits_biased_byte():
    # a field of _glynn is 128 plus a signed row sum, at most n in size for
    # a digraph's A + I and n + 1 for a 0/1 matrix with loops plus I; at
    # n = PERMANENT_MAX_N every such field must fit in a byte and, XORed with
    # 0x80, read back through the kernel's struct "b" format as its sum
    bound = PERMANENT_MAX_N + 1
    sums = range(-bound, bound + 1)
    fields = int.from_bytes(bytes(128 + s for s in sums), "little")
    high = int.from_bytes(b"\x80" * len(sums), "little")
    signed = (fields ^ high).to_bytes(len(sums), "little")
    assert struct.unpack(f"{len(sums)}b", signed) == tuple(sums)
    # the lookup's target byte is 128 plus twice a sum of walked entries of
    # one row, so at most 128 + 2 * bound: it fits in a byte, and at
    # n = PERMANENT_MAX_N the packed sum of every walked column of J + I
    # (each row's entries summing to bound) has each row's sum in its byte
    assert 128 + 2 * bound <= 255
    n = PERMANENT_MAX_N
    cols = matrix_cols([[1 + (i == j) for j in range(n)] for i in range(n)])
    target = int.from_bytes(b"\x80" * n, "little") + 2 * sum(cols)
    assert list(target.to_bytes(n, "little")) == [128 + 2 * bound] * n


def test_value_masks_mark_exactly_the_matching_bytes():
    # every byte value, each between two others, so a carry or borrow
    # across bytes would show in a neighbour's mask; the masks cover the
    # values asked for that the fields hold, and no other
    for order in (range(256), range(255, -1, -1), [0, 255] * 128, [128, 98, 128, 190] * 3):
        fields = bytes(order)
        for values in (range(256), range(128, 191, 2)):
            masks = counting._value_masks(fields, values)
            assert sorted(masks) == sorted(set(values) & set(fields))
            for v, mask in masks.items():
                assert list(mask.to_bytes(len(fields), "little")) == [int(b == v) for b in fields]


def matrix_cols(mat) -> list[int]:
    # column j of a 0/1 matrix packed one byte per row, as count_permanent does
    return [sum(row[j] << 8 * i for i, row in enumerate(mat)) for j in range(len(mat))]


def test_glynn_matches_naive_permanents():
    # 0/1 matrices, loops included, and their plus-I forms: all-ones rows
    # push the fields to 128 +- (n + 1); n <= 8 is one batch of sign
    # patterns, no outer walk
    rng = random.Random(1978)
    for n in range(9):
        mats = [[[1] * n for _ in range(n)], [[0] * n for _ in range(n)]]
        for density in (0.2, 0.5, 0.8):
            mat = [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
            if n:
                mat[rng.randrange(n)] = [1] * n
            mats.append(mat)
        if n == 8:
            mats = mats[:1] + mats[-1:]  # n! terms per naive permanent
        for mat in mats:
            plus_i = [[v + (i == j) for j, v in enumerate(row)] for i, row in enumerate(mat)]
            assert _glynn(matrix_cols(mat), n) == naive_permanent(mat)
            assert _glynn(matrix_cols(plus_i), n) == naive_permanent(plus_i)


def ryser_permanent(mat) -> int:
    # Ryser's formula, perm = (-1)^n sum_S (-1)^|S| prod_i sum_{j in S} m_ij,
    # with S walking the Gray code so each step moves one column in or out
    n = len(mat)
    cols = list(zip(*mat))
    sums = [0] * n
    subset = total = 0
    for g in range(1, 1 << n):
        j = (g & -g).bit_length() - 1
        subset ^= 1 << j
        sign = 1 if subset >> j & 1 else -1
        sums = [s + sign * c for s, c in zip(sums, cols[j])]
        p = math.prod(sums)
        total += -p if subset.bit_count() & 1 else p
    return -total if n & 1 else total


def test_glynn_walk_matches_ryser_n9_to_n14():
    # n >= 10 runs the outer Gray walk beside the 8-sign batch.  The empty
    # matrix skips every block; its plus-I form I has no zero row sum, so it
    # skips none, and nor does J_n at odd n; 0/1 matrices with loops and an
    # all-ones row push the fields of their plus-I forms to 128 +- (n + 1)
    rng = random.Random(2024)
    for n in range(9, 15):
        mats = [[[0] * n for _ in range(n)], [[1] * n for _ in range(n)]]
        for density in (0.2, 0.5, 0.8):
            mat = [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
            mats.append(mat)
            looped = [row[:] for row in mat]
            looped[rng.randrange(n)] = [1] * n
            mats.append(looped)
        for mat in mats:
            plus_i = [[v + (i == j) for j, v in enumerate(row)] for i, row in enumerate(mat)]
            assert _glynn(matrix_cols(mat), n) == ryser_permanent(mat)
            assert _glynn(matrix_cols(plus_i), n) == ryser_permanent(plus_i)
    assert ryser_permanent([[1] * 9 for _ in range(9)]) == math.factorial(9)
    assert ryser_permanent([[int(i != j) for j in range(9)] for i in range(9)]) == 133496


def naive_steps(cols, n: int, h: int) -> dict[int, tuple[bytes, bytes]]:
    # _glynn_steps written out: at walk step w the walked columns h+1+t
    # with bit t of the Gray code w ^ (w >> 1) are negative, so field i of
    # every block drops by twice their entries in row i; a block is kept
    # when none of its fields is 128, a zero row sum, and a step when it
    # keeps a block
    blocks = 1 << h
    start = counting._sign_blocks(cols, n, h).to_bytes(n << h, "little")
    entries = [[(c >> 8 * i) & 0xFF for i in range(n)] for c in cols]  # entries[j][i] = m_ij
    steps = {}
    for walk in range(1 << (n - 1 - h)):
        gray = walk ^ (walk >> 1)
        negative = [h + 1 + t for t in range(n - 1 - h) if gray >> t & 1]
        drop = [2 * sum(entries[j][i] for j in negative) for i in range(n)]
        fields = bytes(start[b * n + i] - drop[i] for b in range(blocks) for i in range(n))
        keep = bytes(128 not in fields[b * n : (b + 1) * n] for b in range(blocks))
        if any(keep):
            steps[walk] = (fields, keep)
    return steps


def test_glynn_steps_keep_exactly_the_blocks_without_a_zero_row_sum():
    # every step of the walk, against a naive per-block check: the kernel's
    # batch width and a narrow one (more steps), on sparse and dense 0/1
    # matrices with loops and their plus-I forms, whose rows with all ones
    # put fields at 128 + (n + 1)
    rng = random.Random(2525)
    for n in range(10, 15):
        mats = [[[1] * n for _ in range(n)]]
        for density in (0.15, 0.4):
            mat = [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
            mat[rng.randrange(n)] = [1] * n
            mats.append(mat)
        for mat in mats:
            plus_i = [[v + (i == j) for j, v in enumerate(row)] for i, row in enumerate(mat)]
            for cols in (matrix_cols(mat), matrix_cols(plus_i)):
                for h in (min(n - 1, counting._GLYNN_BATCH), 3):
                    size = n << h
                    found = {
                        walk: (packed.to_bytes(size, "little"), keep)
                        for walk, packed, keep in counting._glynn_steps(cols, n, h)
                    }
                    assert found == naive_steps(cols, n, h)


def test_glynn_matches_ryser_on_rows_the_walk_skips():
    # rows the lookup treats apart: one on batch columns 0..h only (its
    # zero blocks never move), one on walked columns only (at a step where
    # its sum is 0, every block is skipped, so the whole step is), a zero
    # row, and entries of 2 in the plus-I form of a 0/1 matrix with loops
    rng = random.Random(2526)
    for n in range(10, 14):
        h = min(n - 1, counting._GLYNN_BATCH)
        mat = [[int(rng.random() < 0.4) for _ in range(n)] for _ in range(n)]
        mat[0] = [int(j <= h and j % 2 == 0) for j in range(n)]
        mat[n - 1] = [int(j in (h + 1, h + 2)) for j in range(n)]
        mat[1] = [1] * n
        zero_row = [row[:] for row in mat]
        zero_row[2] = [0] * n
        for m in (mat, zero_row):
            plus_i = [[v + (i == j) for j, v in enumerate(row)] for i, row in enumerate(m)]
            assert _glynn(matrix_cols(m), n) == ryser_permanent(m)
            assert _glynn(matrix_cols(plus_i), n) == ryser_permanent(plus_i)
        # row n - 1 sums to 0 whenever one of its two walked columns is negative
        kept_steps = len(list(counting._glynn_steps(matrix_cols(mat), n, h)))
        assert kept_steps < 1 << (n - 1 - h) or n - 1 - h == 1


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


#: SHA-256 of repr([_chunk_plan(k) for k in range(1, 14)]): a frozen value,
#: recorded from the first-fit plan this one replaced, which it must equal
FROZEN_CHUNK_PLAN_SHA256 = "f5b61afa84014c9373be8755d832428dff23e4bcf59569b1df50c61ade7f2eeb"


def test_chunk_plan_frozen_digest():
    plans = repr([_chunk_plan(k) for k in range(1, 14)])
    assert hashlib.sha256(plans.encode()).hexdigest() == FROZEN_CHUNK_PLAN_SHA256


def test_chunk_plan_merges_to_sperner_width():
    # at every k <= 14, every row t has C(t + 1, floor((t + 1)/2)) chunks
    # after it, each chunk before it matched into one chunk and fixed into
    # one, and each chunk after it taking at most one matched and at most
    # one fixed chunk; replayed, the fixed-set sizes of every chunk rise by
    # 1 with no gap at any row, and after the last every fixed set lies in
    # exactly one chunk
    for k in range(1, 15):
        steps, sets = _chunk_plan(k)
        assert len(steps) == k
        parts = [[0]]
        for t, step in enumerate(steps):
            assert len(step) == math.comb(t + 1, (t + 1) // 2)
            assert sorted(c for matched, _ in step for c in matched) == list(range(len(parts)))
            assert sorted(c for _, fixed in step for c in fixed) == list(range(len(parts)))
            assert all(len(matched) <= 1 and len(fixed) <= 1 for matched, fixed in step)
            parts = [
                [f for c in matched for f in parts[c]]
                + [f | 1 << t for c in fixed for f in parts[c]]
                for matched, fixed in step
            ]
            for fs in parts:
                sizes = [f.bit_count() for f in fs]
                assert sizes == list(range(sizes[0], sizes[0] + len(fs)))
        assert [sorted(fs) for fs in parts] == [sorted(fs) for fs in sets]
        assert sorted(f for fs in sets for f in fs) == list(range(1 << k))
        assert sets[0][0] == 0  # table 0, whose top field is the layer's matchings


def test_readers_follow_the_plan_order():
    # read from the keys themselves, getter i gives full ^ F for the size-i
    # fixed sets F in the order the plan lists them, the order of the
    # size-i vectors, which the ell >= 3 chain relies on: entry z of every
    # vector lines up with vector z of its size
    for k in range(1, 11):
        full = (1 << k) - 1
        readers, sizes = _readers(k)
        sets = _chunk_plan(k)[1]
        assert len(readers) == len(sets)
        inner = [f for f in itertools.chain.from_iterable(sets) if 0 < f.bit_count() < k]
        assert list(sizes) == [f.bit_count() for f in inner]
        keys = list(range(1 << k))
        vectors = [get(keys) for gets in readers for get in gets]
        assert len(vectors) == len(sizes) == (1 << k) - 2
        for v, i in enumerate(sizes):
            assert list(vectors[v]) == [full ^ f for f in inner if f.bit_count() == i]


def test_layered_big_endian_field_order(monkeypatch):
    # at k <= 5 a field is one byte, so the bytes of a chunk read as
    # sys.byteorder = "big" are exactly those of a big-endian machine, where
    # field U of a chunk is item full ^ U of the view, and item U of the
    # reversed view the readers take; every row adds chunks as _chunk_plan
    # says, and the counts must not change in either byte order.  At
    # ell >= 3 the packed columns, whose fields are wider than a byte, keep
    # their own little-endian layout whatever sys.byteorder says
    rng = random.Random(1955)
    graphs = []
    for k in range(2, 6):
        assert field_bytes(k) == 1
        base = build_blowup(k, rng.choice([2, 3, 4]))
        for _ in range(8):
            g = sample_subgraph(base, rng.randrange(base.edge_count + 1), rng.randrange(1 << 30))
            graphs.append((g, count_permanent(to_general(g))))
    for order in ("little", "big"):
        monkeypatch.setattr(sys, "byteorder", order)
        for g, expected in graphs:
            assert count_layered(g) == expected


def test_layered_merged_chunks_one_byte_fields(monkeypatch):
    # at k <= 5 a field is one byte and the 2^k tables of a layer end added
    # into C(k, floor(k/2)) chunks, fixed sets of different sizes sharing
    # one; the full blow-ups and subgraphs of them at ell = 2..4 are read in
    # both byte orders as in test_layered_big_endian_field_order, and the
    # counts must not change
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
    for order in ("little", "big"):
        monkeypatch.setattr(sys, "byteorder", order)
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


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_layered_k12_peak_rss():
    # one count of the full k = LAYERED_MAX_K = 12, ell = 2 blow-up, the
    # largest size count_layered admits, in a fresh process: peak RSS
    # measured at 59.3 MB (Linux x86-64, CPython 3.11, about 0.7 s), the
    # first layer's C(12, 6) = 924 chunk views of 16 KB (15 MB) beside the
    # second layer's last row, 462 chunks before it and 924 after.  One
    # chunk per table measured 160 MB, and CPython 3.10, 3.12 and 3.13
    # measured 55.9, 58.5 and 58.3-60.9 MB; the bound is 5% over 59.3 MB
    assert LAYERED_MAX_K == 12
    src = os.path.dirname(os.path.dirname(dpratio.__file__))
    probe = (
        "import resource; from dpratio.counting import count_layered; "
        "from dpratio.digraph import build_blowup; "
        "c = count_layered(build_blowup(12, 2)); "
        "print(c.derangements, c.permutations, "
        "resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert CountPair(int(out[0]), int(out[1])) == closed_form_counts(12, 2)
    assert int(out[2]) / 1024 <= 1.05 * 59.3


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
    assert _field_width(math.comb(8, 1) ** 4 * math.factorial(7) ** 5) == 10
    for k, ell in shapes:
        assert closed_form_counts(k, ell) == count_layered(build_blowup(k, ell))


def naive_permanent(mat) -> int:
    n = len(mat)
    return sum(
        math.prod(mat[i][s[i]] for i in range(n)) for s in itertools.permutations(range(n))
    )


def test_layer_minors_match_permanents():
    # one packed matching DP per layer gives, for every i, the permanent of
    # each minor keeping rows outside F and columns outside F' with |F| = i,
    # at field full ^ F' of tables[F]; every field with |F| + |U| != k is 0
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
        tables = [table_fields(table, k) for table in layer_tables(rows, k)]
        assert len(tables) == 1 << k
        for f_rows, table in enumerate(tables):
            for used, cnt in enumerate(table):
                if f_rows.bit_count() + used.bit_count() != k:
                    assert cnt == 0
        for f_rows in range(1 << k):
            keep_rows = [r for r in range(k) if not (f_rows >> r) & 1]
            for f_cols in range(1 << k):
                if f_cols.bit_count() != f_rows.bit_count():
                    continue
                keep_cols = [j for j in range(k) if not (f_cols >> j) & 1]
                minor = [[(rows[r] >> j) & 1 for j in keep_cols] for r in keep_rows]
                assert tables[f_rows][full ^ f_cols] == naive_permanent(minor)


def per_row_mask_table(rows, k: int) -> int:
    # the layer DP on one int, state F << k | U in field F << k | U, with
    # each column mask made for its row at the row's size
    nbytes = field_bytes(k)
    width = 8 * nbytes
    cur = 1
    for t, row in enumerate(rows):
        size = 1 << (k + t)
        nxt = cur << (width << (k + t))
        for j in range(k):
            if (row >> j) & 1:
                run = nbytes << j
                pattern = b"\xff" * run + b"\x00" * run
                mask = int.from_bytes(pattern * (size >> (j + 1)), "little")
                nxt += (cur & mask) << (width << j)
        cur = nxt
    return cur


def end_to_end(tables, span: int) -> int:
    # tables[f] shifted up by span * f bits and summed, as one join of bytes
    # where every table fits its span
    assert all(table >> span == 0 for table in tables)
    raw = b"".join(table.to_bytes(span // 8, "little") for table in tables)
    return int.from_bytes(raw, "little")


def test_layer_table_matches_per_row_masks():
    # the chunks, and the tables split from them, laid end to end in the
    # order of F, are the one-int table
    rng = random.Random(15)
    for k in range(1, 11):
        full = (1 << k) - 1
        layers = [[0] * k, [full] * k]  # the empty and the full layer
        for density in (0.3, 0.6, 0.9):
            rows = [sum(1 << j for j in range(k) if rng.random() < density) for _ in range(k)]
            rows[rng.randrange(k)] = rng.choice([0, full])
            layers.append(rows)
        nbytes = field_bytes(k)
        span = 8 * nbytes << k  # bits of one table's 2^k fields
        for rows in layers:
            reference = per_row_mask_table(rows, k)
            chunks = _layer_tables(rows, k, nbytes)
            # chunk c adds the reference's tables at its fixed sets
            sets = _chunk_plan(k)[1]
            runs = [sum((reference >> span * f) & ((1 << span) - 1) for f in fs) for fs in sets]
            assert chunks == runs
            assert end_to_end(layer_tables(rows, k), span) == reference


def test_layer_tables_k11_one_edge_per_row():
    # a layer at k = 11, one edge per row (row r to column 3r mod 11): field U
    # of tables[F] is 1 exactly when U is the image of the rows outside F,
    # and every other field is 0
    k = 11
    width = 8 * field_bytes(k)
    rows = [1 << (3 * r % k) for r in range(k)]
    tables = layer_tables(rows, k)
    assert len(tables) == 1 << k
    for f, table in enumerate(tables):
        image = sum(rows[r] for r in range(k) if not (f >> r) & 1)
        assert table == 1 << width * image


def test_import_keeps_no_masks():
    # masks, chunk plans and getters are made by the first count at each k,
    # never at import
    src = os.path.dirname(os.path.dirname(dpratio.__file__))
    probe = (
        "import dpratio, dpratio.counting as c; "
        "print(*(f.cache_info().currsize for f in (c._column_masks, c._chunk_plan, c._readers)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.split() == ["0", "0", "0"]


def test_field_width_bounds():
    # the one width rule of every packed field: the fewest of 1, 2, 4 and 8
    # bytes that hold the bound, whole bytes past 8
    bounds = [0, 1, 255, 256, 2**16, 2**32, 2**64 - 1, 2**64, 2**72]
    assert [_field_width(b) for b in bounds] == [1, 1, 1, 2, 4, 8, 8, 9, 10]


def test_codes_have_their_widths():
    # each code is its width both as a standard struct size (_pack, _unpack)
    # and as a native item size (the chunk views' memoryview.cast)
    assert sorted(_CODES) == [1, 2, 4, 8]
    for n, c in _CODES.items():
        assert array(c).itemsize == n
        assert struct.calcsize("<" + c) == n


def test_layer_field_width(monkeypatch):
    # a field holds any count up to k!, in the fewest of 1, 2, 4 and 8 bytes
    for k in range(1, 21):
        nbytes = field_bytes(k)
        assert math.factorial(k) < 1 << 8 * nbytes
        assert nbytes == 1 or math.factorial(k) >= 1 << 4 * nbytes
    assert [field_bytes(k) for k in (5, 6, 8, 9, 12, 13, 20)] == [1, 2, 2, 4, 4, 8, 8]
    # 21! needs more than 64 bits: a clear error that names k, past the
    # part size guard, before any table is built
    def refuse(rows, k, nbytes):
        raise AssertionError(f"tables built at k = {k}, {nbytes}-byte fields")

    monkeypatch.setattr(counting, "LAYERED_MAX_K", 21)
    monkeypatch.setattr(counting, "_layer_vectors", refuse)
    with pytest.raises(ValueError, match="k = 21"):
        count_layered(build_blowup(21, 2))
    # a full layer reaches k! at the empty fixed set, at the largest k of
    # the 1- and 2-byte widths and the smallest of the 4-byte width
    for k in (5, 8, 9):
        tables = layer_tables([(1 << k) - 1] * k, k)
        assert table_fields(tables[0], k)[(1 << k) - 1] == math.factorial(k)


def test_layered_forced_8_byte_fields(monkeypatch):
    # the 8-byte width (k = 13..20) at small k: every field of every table,
    # and of every packed column, 8 bytes wide, the tables read through
    # typecode "Q"; the counts must not change
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
    monkeypatch.setattr(counting, "_field_width", lambda bound: 8)
    assert _CODES[8] == "Q"
    for g, expected in graphs:
        assert count_layered(g) == expected
        rows = g.layers[0]
        assert _layer_tables(rows, g.k, 8) == [
            int.from_bytes(b"".join(v.to_bytes(8, "little") for v in fields), "little")
            for fields in chunk_fields(layer_tables(rows, g.k), g.k)
        ]


def chunk_fields(tables, k: int) -> list[list[int]]:
    # the fields of the tables grouped as the chunks hold them: the fields
    # of the chunk's fixed sets added
    fields = [table_fields(table, k) for table in tables]
    return [[sum(vs) for vs in zip(*(fields[f] for f in fs))] for fs in _chunk_plan(k)[1]]


def naive_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_kronecker_column_products_past_64_bits():
    # packed columns of A, times B, times C, unpacked, against the product
    # written out entry by entry; an entry of B C is below 7 * 15 * 7 * 7 <
    # 2^13, so with A's entries below 2^(W - 13) the products fit W-bit
    # fields, and they pass 64 bits, which only the byte-slice unpack reads
    rng = random.Random(64)
    n = 7
    for nbytes in (9, 10, 11):
        a = [[rng.randrange(1 << (8 * nbytes - 13)) for _ in range(n)] for _ in range(n)]
        b = [[rng.randrange(1 << 4) for _ in range(n)] for _ in range(n)]
        c = [[rng.randrange(1 << 3) for _ in range(n)] for _ in range(n)]
        a[rng.randrange(n)] = [0] * n  # a zero row: a zero field inside each column
        expected = naive_product(naive_product(a, b), c)
        assert max(map(max, expected)) >= 1 << 64
        assert max(map(max, expected)) < 1 << 8 * nbytes
        sizes = [1] * n  # one size, so every column is one of one matrix
        packed = {1: [_pack(col, nbytes) for col in zip(*a)]}
        for mat in (b, c):
            packed = _column_products(packed, zip(*mat), sizes)
        assert [_unpack(x, nbytes, n) for x in packed[1]] == list(zip(*expected))
    # the struct widths pack and unpack to the same fields
    for nbytes in (1, 2, 4, 8):
        col = [rng.randrange(1 << 8 * nbytes) for _ in range(n)] + [1]
        assert _unpack(_pack(col, nbytes), nbytes, n + 1) == tuple(col)


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
