"""The Glynn kernel of `dpratio.permanent` and its split by connected
components, against naive and Ryser permanents."""

import math
import random
import struct
import time

import pytest

from dpratio import permanent
from dpratio.counting import PERMANENT_MAX_N, CountPair, count_permanent
from dpratio.digraph import Digraph, build_blowup, to_general
from dpratio.oracles import closed_form_counts
from dpratio.permanent import _glynn
from dpratio.verify import PROFILES, cross_check_graphs
from test_counting import naive_permanent, random_digraph


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
            masks = permanent._value_masks(fields, values)
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
    start = permanent._sign_blocks(cols, n, h).to_bytes(n << h, "little")
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
    # put fields at 128 + (n + 1); at n <= 9 the kernel's one-step walk, h =
    # n - 1, with no walked column
    rng = random.Random(2525)
    for n in [*range(10, 15), *range(1, 10)]:
        widths = (min(n - 1, permanent._GLYNN_BATCH), 3) if n >= 10 else (n - 1,)
        mats = [[[1] * n for _ in range(n)]]
        for density in (0.15, 0.4):
            mat = [[int(rng.random() < density) for _ in range(n)] for _ in range(n)]
            mat[rng.randrange(n)] = [1] * n
            mats.append(mat)
        for mat in mats:
            plus_i = [[v + (i == j) for j, v in enumerate(row)] for i, row in enumerate(mat)]
            for cols in (matrix_cols(mat), matrix_cols(plus_i)):
                for h in widths:
                    size = n << h
                    found = {
                        walk: (packed.to_bytes(size, "little"), keep)
                        for walk, packed, keep in permanent._glynn_steps(cols, n, h)
                    }
                    assert found == naive_steps(cols, n, h)


def test_glynn_matches_ryser_on_rows_the_walk_skips():
    # rows the lookup treats apart: one on batch columns 0..h only (its
    # zero blocks never move), one on walked columns only (at a step where
    # its sum is 0, every block is skipped, so the whole step is), a zero
    # row, and entries of 2 in the plus-I form of a 0/1 matrix with loops
    rng = random.Random(2526)
    for n in range(10, 14):
        h = min(n - 1, permanent._GLYNN_BATCH)
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
        kept_steps = len(list(permanent._glynn_steps(matrix_cols(mat), n, h)))
        assert kept_steps < 1 << (n - 1 - h) or n - 1 - h == 1


def permanent_matrices(g: Digraph) -> tuple[list[int], list[int]]:
    # the packed columns of A and of A + I, as count_permanent builds them
    cols = [0] * g.n
    for u, v in g.edges:
        cols[v] += 1 << 8 * u
    return cols, [c + (1 << 8 * j) for j, c in enumerate(cols)]


def glynn_sizes(monkeypatch) -> list[list[int]]:
    # the n of each _glynn call, one list per permanent call
    glynn, whole, passes = permanent._glynn, permanent.permanent, []

    def record(cols, n):
        passes[-1].append(n)
        return glynn(cols, n)

    def per_pass(cols, n):
        passes.append([])
        return whole(cols, n)

    monkeypatch.setattr(permanent, "_glynn", record)
    monkeypatch.setattr(permanent, "permanent", per_pass)
    return passes


def test_permanent_by_components_equals_whole_matrix_glynn(monkeypatch):
    # the split against the one kernel it factors: A and A + I of every
    # cross-check graph of both profiles, and of random digraphs from empty
    # to complete, which split into components of every shape
    graphs = [
        to_general(g) for name in ("tiny", "small") for g in cross_check_graphs(PROFILES[name])
    ]
    rng = random.Random(1978)
    densities = (0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0)
    graphs += [random_digraph(t % 15, densities[t % 8], rng) for t in range(520)]
    passes = glynn_sizes(monkeypatch)
    ns = []
    for g in graphs:
        for cols in permanent_matrices(g):
            assert permanent.permanent(cols, g.n) == _glynn(cols, g.n)
            ns.append(g.n)
    # of the 1540 passes, 266 run Glynns smaller than their matrix, and 642
    # (70 of them at n = 0) run none: a component is not square, or every
    # component is 1 x 1
    assert sum(any(size < n for size in sizes) for sizes, n in zip(passes, ns)) > 200
    assert sum(not sizes for sizes in passes) > 500


def test_permanent_by_components_general_entries():
    # entries 0-3 (row sums <= 30, as _glynn's byte fields allow) in blocks
    # of rows and columns dealt at random, with one column of every fifth
    # matrix moved to a random block: components of every size, 1 x 1 ones
    # with any entry, and non-square ones
    rng = random.Random(1934)
    for t in range(300):
        n = rng.randrange(11)
        blocks = [rng.randrange(4) for _ in range(n)]
        row_block, col_block = rng.sample(blocks, n), rng.sample(blocks, n)
        if t % 5 == 0 and n:
            col_block[0] = rng.randrange(4)
        cols = [
            sum(
                rng.choice((0, 1, 2, 3)) << 8 * i
                for i in range(n)
                if row_block[i] == col_block[j] and rng.random() < 0.8
            )
            for j in range(n)
        ]
        assert permanent.permanent(cols, n) == _glynn(cols, n)


@pytest.mark.parametrize(
    "edges, n, counts, sizes",
    [
        # vertex 2 is a sink: A's row 2 is empty
        ({(0, 1), (1, 0), (1, 2)}, 3, (0, 2), [[], [3]]),
        # no edge enters vertex 2: A's column 2 is empty
        ({(0, 1), (1, 0), (2, 0)}, 3, (0, 2), [[], [3]]),
        # an odd directed cycle: A is five 1 x 1 components, each its entry
        ({(v, (v + 1) % 5) for v in range(5)}, 5, (1, 2), [[], [5]]),
        # the empty digraph: A + I = I, five 1 x 1 components
        (set(), 5, (0, 1), [[], []]),
    ],
)
def test_permanent_components_hand_cases(monkeypatch, edges, n, counts, sizes):
    g = Digraph(n=n, edges=frozenset(edges))
    a, a_plus_i = permanent_matrices(g)
    assert permanent.permanent(a, n) == _glynn(a, n) == counts[0]
    assert permanent.permanent(a_plus_i, n) == _glynn(a_plus_i, n) == counts[1]
    passes = glynn_sizes(monkeypatch)
    assert count_permanent(g) == CountPair(*counts)
    assert passes == sizes


def test_derangement_pass_runs_one_glynn_per_part(monkeypatch):
    # A of a blow-up subgraph joins the rows of part c only to the columns
    # of part c + 1, so no Glynn of the derangement pass is wider than k;
    # A + I of the full blow-up is one component, a Glynn of all 16
    passes = glynn_sizes(monkeypatch)
    assert count_permanent(to_general(build_blowup(8, 2))) == closed_form_counts(8, 2)
    assert passes == [[8, 8], [16]]
    for g in cross_check_graphs(PROFILES["small"]):
        if g.k == 8:
            passes.clear()
            count_permanent(to_general(g))
            assert max(passes[0], default=0) <= 8


def test_permanent_of_disjoint_two_cycles_n30():
    # 15 components of 2 x 2 in each pass; the whole-matrix walk would take
    # 2^29 sign patterns a pass
    g = Digraph(n=30, edges=frozenset(e for v in range(0, 30, 2) for e in ((v, v + 1), (v + 1, v))))
    start = time.perf_counter()
    assert count_permanent(g) == CountPair(1, 2**15)
    assert time.perf_counter() - start < 1.0
