"""The transfer-matrix counter's internals in `dpratio.layered`: the chunk
layout and its readers, the layer tables against naive permanents, the
ell = 2 walk's field widths, and the ell >= 3 packed column products."""

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpratio
from dpratio import layered
from dpratio.counting import count_layered, count_permanent
from dpratio.digraph import build_blowup, sample_subgraph, to_general
from dpratio.layered import (
    _column_products,
    _layer_tables,
    _layout,
    _readers,
    _walk_widths,
    _widen,
)
from dpratio.oracles import closed_form_counts
from dpratio.packed import pack, unpack
from test_counting import field_bytes, layer_tables, naive_permanent, table_fields


#: SHA-256 of repr([chunk_plan(k) for k in range(1, 14)]): a frozen value,
#: recorded from the first-fit plan the layout replaced, which it must equal
FROZEN_CHUNK_PLAN_SHA256 = "f5b61afa84014c9373be8755d832428dff23e4bcf59569b1df50c61ade7f2eeb"


def chunk_plan(k: int):
    # the layout's steps and sets in the form the frozen digest was recorded
    # from: for each chunk after a row, the (matched, fixed) chunks before it
    steps, sets = _layout(k)[:2]
    paired = lambda partners: tuple(((c,), () if d is None else (d,)) for c, d in enumerate(partners))
    return tuple(paired(partners) + tuple(((), (d,)) for d in rest) for partners, rest in steps), sets


def test_chunk_plan_frozen_digest():
    plans = repr([chunk_plan(k) for k in range(1, 14)])
    assert hashlib.sha256(plans.encode()).hexdigest() == FROZEN_CHUNK_PLAN_SHA256


def test_chunk_plan_merges_to_sperner_width():
    # at every k <= 14, every row t has C(t + 1, floor((t + 1)/2)) chunks
    # after it: one per chunk before it, each chunk's matched form plus at
    # most one partner's fixed form, then one per fixed form in rest; the
    # partners and rest together name each chunk before the row exactly
    # once; replayed, the fixed-set sizes of every chunk rise by 1 with no
    # gap at any row, and after the last every fixed set lies in exactly
    # one chunk
    for k in range(1, 15):
        steps, sets = _layout(k)[:2]
        assert len(steps) == k
        parts = [[0]]
        for t, (partners, rest) in enumerate(steps):
            assert len(partners) == len(parts)
            assert len(partners) + len(rest) == math.comb(t + 1, (t + 1) // 2)
            named = [d for d in partners if d is not None] + list(rest)
            assert sorted(named) == list(range(len(parts)))
            assert list(rest) == sorted(rest)
            fixed = [[f | 1 << t for f in fs] for fs in parts]
            parts = [fs + ([] if d is None else fixed[d]) for fs, d in zip(parts, partners)]
            parts += [fixed[d] for d in rest]
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
        sets = _layout(k)[1]
        readers = _readers(k)
        assert len(readers) == len(sets)
        inner = [f for f in itertools.chain.from_iterable(sets) if 0 < f.bit_count() < k]
        sizes = [i for reads in readers for i, _ in reads]
        assert sizes == [f.bit_count() for f in inner]
        keys = list(range(1 << k))
        vectors = [get(keys) for reads in readers for _, get in reads]
        assert len(vectors) == len(sizes) == (1 << k) - 2
        for v, i in enumerate(sizes):
            assert list(vectors[v]) == [full ^ f for f in inner if f.bit_count() == i]

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
            sets = _layout(k)[1]
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

def cache_sizes_after(statement: str) -> list[str]:
    # in a fresh process: the entries of the column mask, layout (chunk
    # plans), reader (getters) and walk width caches after the statement
    src = os.path.dirname(os.path.dirname(dpratio.__file__))
    caches = "c._column_masks, c._layout, c._readers, c._walk_widths"
    probe = (
        "import dpratio, dpratio.layered as c; "
        "from dpratio.counting import count_layered; "
        "from dpratio.digraph import build_blowup; "
        f"{statement}; "
        f"print(*(f.cache_info().currsize for f in ({caches})))"
    )
    return subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()


def test_import_keeps_no_masks():
    # masks, layouts, readers and walk widths are made by the first count at
    # each k, never at import
    assert cache_sizes_after("pass") == ["0", "0", "0", "0"]


def test_two_layer_count_makes_no_readers():
    # an ell = 2 count reads no vector, so it leaves the reader cache empty;
    # it makes one layout and one width table, and the masks of its widths
    # (k = 8: 2, 3 and 4 bytes); an ell = 3 count makes the readers
    assert cache_sizes_after("count_layered(build_blowup(8, 2))") == ["3", "1", "0", "1"]
    assert cache_sizes_after("count_layered(build_blowup(8, 3))")[2] == "1"


def test_layer_field_width():
    # a field holds any count up to k!, in the fewest of 1, 2, 4 and 8 bytes
    for k in range(1, 21):
        nbytes = field_bytes(k)
        assert math.factorial(k) < 1 << 8 * nbytes
        assert nbytes == 1 or math.factorial(k) >= 1 << 4 * nbytes
    assert [field_bytes(k) for k in (5, 6, 8, 9, 12, 13, 20)] == [1, 2, 2, 4, 4, 8, 8]
    # a full layer reaches k! at the empty fixed set, at the largest k of
    # the 1- and 2-byte widths and the smallest of the 4-byte width
    for k in (5, 8, 9):
        tables = layer_tables([(1 << k) - 1] * k, k)
        assert table_fields(tables[0], k)[(1 << k) - 1] == math.factorial(k)


def transposed_field_bound(k: int, t: int, u: int) -> int:
    # a field of the ell = 2 route's chunk before row t, at |U| = u: the
    # walks of rows t..k-1 that match j of them into columns outside U, each
    # ending at a first-layer field of at most (u + j)!
    return sum(
        math.comb(k - t, j) * math.perm(k - u, j) * math.factorial(u + j) for j in range(k - t + 1)
    )


def byte_length(x: int) -> int:
    return max(1, (x.bit_length() + 7) // 8)


def test_two_layer_fields_never_carry(monkeypatch):
    # the ell = 2 route runs its first layer at the byte length of k!, and
    # the chunks before row t of its transposed walk at that of the largest
    # bound of the row, which the production recurrence must give as the
    # direct formula does; the bounds grow as the walk goes back, and reach
    # the full blow-up's Y only at row 0, |U| = 0
    for k in range(1, 15):
        full = closed_form_counts(k, 2).permutations
        widths = _walk_widths(k)
        assert len(widths) == k + 1
        assert widths[k] == byte_length(math.factorial(k))
        for t in range(k + 1):
            bounds = [transposed_field_bound(k, t, u) for u in range(k + 1)]
            assert widths[t] == byte_length(max(bounds))
            for u, bound in enumerate(bounds):
                assert bound <= full
                assert (bound == full) == (t == u == 0)
        assert list(widths) == sorted(widths, reverse=True)
    assert _walk_widths(8) == (4, 4, 4, 3, 3, 3, 3, 2, 2)
    assert _walk_widths(12) == (8, 7, 7, 7, 6, 6, 5, 5, 5, 4, 4, 4, 4)
    # spy on the walk: every field of every chunk before row t, unpacked at
    # the row's width, is at most its bound at |U|, for the full blow-ups
    # and for sampled subgraphs, and the counts do not change
    firsts, rows = [], []

    def tables(rows_, k, nbytes):
        firsts.append(nbytes)
        return _layer_tables(rows_, k, nbytes)

    def walk_row(after, row, step, k, old, nbytes):
        before = transposed_row(after, row, step, k, old, nbytes)
        rows.append((k, nbytes, list(before)))
        return before

    transposed_row = layered._transposed_row
    monkeypatch.setattr(layered, "_layer_tables", tables)
    monkeypatch.setattr(layered, "_transposed_row", walk_row)
    rng = random.Random(3535)
    graphs = []
    for k in range(1, 12):
        base = build_blowup(k, 2)
        graphs.append((base, closed_form_counts(k, 2)))
        if k <= 9:
            for _ in range(3):
                g = sample_subgraph(base, rng.randrange(base.edge_count + 1), rng.randrange(1 << 30))
                graphs.append((g, count_permanent(to_general(g))))
    for g, expected in graphs:
        k = g.k
        firsts.clear()
        rows.clear()
        assert count_layered(g) == expected
        assert firsts == [_walk_widths(k)[k]]
        assert [kk for kk, _, _ in rows] == [k] * k
        for t, (_, nbytes, before) in zip(reversed(range(k)), rows):
            assert nbytes == _walk_widths(k)[t]
            assert len(before) == math.comb(t, t // 2)
            for chunk in before:
                fields = unpack(chunk, nbytes, 1 << k)
                assert all(v <= transposed_field_bound(k, t, u.bit_count()) for u, v in enumerate(fields))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 10),
    st.data(),
    st.randoms(use_true_random=False),
)
def test_widen_keeps_every_field(k, old, data, rng):
    # random fields of 1..10 bytes at k = 1..12, widened to every larger
    # width up to 12 bytes, read back unchanged; the first fields are drawn
    # (so 0 and the largest value turn up), the rest, up to 2^k, at random
    top = (1 << 8 * old) - 1
    head = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=16), label="head")
    fields = (head + [rng.randint(0, top) for _ in range(1 << k)])[: 1 << k]
    x = pack(fields, old)
    for nbytes in range(old, 13):
        assert unpack(_widen(x, k, old, nbytes), nbytes, 1 << k) == tuple(fields)


def test_two_layers_read_no_vectors(monkeypatch):
    # ell = 2 counts with no vector read from any chunk: sampled subgraphs
    # against the permanent, the full blow-ups against the closed form;
    # ell = 3 still reads them
    def refuse(*args):
        raise AssertionError("chunk read as vectors")

    monkeypatch.setattr(layered, "_layer_vectors", refuse)
    rng = random.Random(3232)
    for k in range(1, 9):
        base = build_blowup(k, 2)
        for _ in range(6):
            g = sample_subgraph(base, rng.randrange(base.edge_count + 1), rng.randrange(1 << 30))
            assert count_layered(g) == count_permanent(to_general(g))
    for k in range(1, 12):
        assert count_layered(build_blowup(k, 2)) == closed_form_counts(k, 2)
    with pytest.raises(AssertionError, match="vectors"):
        count_layered(build_blowup(2, 3))


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
        packed = {1: [pack(col, nbytes) for col in zip(*a)]}
        for mat in (b, c):
            # one size, so every column is one of one matrix
            packed = _column_products(packed, ((1, col) for col in zip(*mat)))
        assert [unpack(x, nbytes, n) for x in packed[1]] == list(zip(*expected))
    # the struct widths pack and unpack to the same fields
    for nbytes in (1, 2, 4, 8):
        col = [rng.randrange(1 << 8 * nbytes) for _ in range(n)] + [1]
        assert unpack(pack(col, nbytes), nbytes, n + 1) == tuple(col)
