"""Exact permutation and derangement counting.

Two counters:

* count_permanent  -- Glynn permanents of A and of A+I, one pass each,
  any digraph with n <= 30: the sign patterns of up to 8 columns side by
  side in one packed int, a Gray-code walk over the rest; each step skips,
  in C, the patterns with a zero row sum (most of them, for a sparse
  digraph), found by byte-wise big-int arithmetic in which no byte
  carries into the next;
* count_layered    -- transfer-matrix over per-part fixed sets, the
  workhorse for blow-up subgraphs (cost exponential in k, not in k*ell);
  one perfect-matching DP per layer gives its matrix entries for every
  fixed-set size i at once.  The DP keeps one packed int per set F of
  fixed rows: the count of used columns U sits in field U, of W = 8, 16
  or 32 bits, the smallest with k! < 2^W, and each row moves every field
  of a table at once with big-int shifts and masks.  No field carries,
  since a count is at most |U|! <= k! and every addend is nonnegative.
  The k column masks span the 2^k fields of one table and depend only on
  k, so they are made once per process (functools.cache) and kept for
  every later layer and call, at every k (192 KB at k = 12).  The end
  sizes are closed forms: i = 0 is the product of the layers'
  perfect-matching counts and i = k the identity alone.  Each matrix row
  of a size between them is read from its table in one
  `operator.itemgetter` call.

`count` takes the counter from the graph: layered for a `SampledSubgraph`
(a blow-up subgraph, the full blow-up included), the permanent for a
general `Digraph`.  The permanent is also an oracle for the layered
counter, beside the brute force of `dpratio.oracles` (see `dpratio.verify`).

A permutation in a digraph is a bijection where each vertex is fixed or
maps along an out-edge; a derangement fixes nothing.  Counting permutations
equals the permanent of adjacency-plus-identity, derangements the permanent
of the adjacency matrix.
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from operator import itemgetter, mul

from .digraph import Digraph, SampledSubgraph

PERMANENT_MAX_N = 30
LAYERED_MAX_K = 12


@dataclass(frozen=True)
class CountPair:
    """Exact derangement and permutation counts for one digraph."""

    derangements: int
    permutations: int

    def ratio(self) -> Fraction:
        return Fraction(self.derangements, self.permutations)


#: Columns 1.._GLYNN_BATCH have their sign patterns side by side in one
#: packed int of _glynn, 256 patterns a step; widths 6 to 10 measured
#: within about 10% of each other at n = 16 and 18, width 4 slower
_GLYNN_BATCH = 8

#: bytes.translate table from a block's zero count to _glynn's keep flag:
#: 0 -> 1, anything else -> 0
_KEEP = bytes(b == 0 for b in range(256))


def _sign_blocks(cols: list[int], n: int, h: int) -> int:
    """One n-byte block per sign pattern T of columns 1..h (negative on T,
    positive elsewhere), even |T| first: the block's byte i is 128 + sum_j
    delta_j * cols[j] byte i.  Built by doubling: column j extends each
    pattern so far by a negative sign, which moves it from the even to the
    odd half or back."""
    base = int.from_bytes(b"\x80" * n, "little") + sum(cols)
    if h == 0:
        return base
    width = 8 * n
    even, odd = base, base - 2 * cols[1]
    ones = 1  # 1 in the low byte of each block of one half
    for j in range(2, h + 1):
        shift = width << (j - 2)
        two = 2 * cols[j] * ones
        even, odd = even | ((odd - two) << shift), odd | ((even - two) << shift)
        ones |= ones << shift
    return even | (odd << (width << (h - 1)))


def _zero_flags(x: int, low: int, high: int) -> int:
    """1 in each byte of x that is 0, 0 in every other byte; low and high
    hold 0x7f and 0x80 in each byte of x.  A byte's low 7 bits plus 0x7f is
    at most 0xfe, so it stays in its byte and sets bit 7 unless those bits
    are all 0; ORed with the byte itself, bit 7 is clear exactly when the
    byte is 0."""
    return (((((x & low) + low) | x) & high) ^ high) >> 7


def _glynn(cols: list[int], n: int) -> int:
    """perm(M) for the n x n matrix M whose column j is cols[j], packed one
    byte per row (row i in bits 8*i .. 8*i + 7).

    Glynn: 2^(n-1) perm = sum over column signs delta with delta_0 = +1 of
    prod_j delta_j * prod_i (sum_j delta_j m_ij), by perm(M) = perm(M^T).
    The 2^h patterns of columns 1..h, h = min(n - 1, _GLYNN_BATCH), sit in
    n-byte blocks of one int (_sign_blocks).  The other n - 1 - h signs walk
    the Gray code, so each step flips one sign and moves every block at once
    by one add or subtract of twice that packed column.

    Each field is 128 + sum_j delta_j m_ij.  count_permanent passes A or
    A + I of a digraph, whose rows sum to at most n <= PERMANENT_MAX_N = 30,
    so every field stays in [98, 158] within its byte: the packed sums equal
    the per-field sums, with no borrow or carry between fields.  XOR with
    0x80 in every byte turns each field into its row sum as a two's
    complement byte, 0 exactly for a zero row sum.

    A block with a zero row sum adds nothing, and most blocks of a sparse
    matrix have one, so each step finds those blocks in C and multiplies
    out only the rest.  The zero fields' flags (_zero_flags), multiplied by
    `ones`, a 1 in each of n bytes, leave each block's zero count in its
    top byte: every partial sum of a byte is at most n <= PERMANENT_MAX_N
    < 256, so none carries into the next.  One strided slice and translate
    of those counts give `keep`, a 1 byte per block with no zero row sum.
    Each kept block is read as n signed bytes (struct "b"), and the row-sum
    products are summed in C.
    O(2^(n-1) * n).
    """
    if n == 0:
        return 1
    h = min(n - 1, _GLYNN_BATCH)
    blocks = 1 << h
    evens = (blocks + 1) >> 1
    packed = _sign_blocks(cols, n, h)
    twos = int.from_bytes((b"\x02" + b"\x00" * (n - 1)) * blocks, "little")
    steps = [twos * cols[j] for j in range(h + 1, n)]
    size = n << h
    high = int.from_bytes(b"\x80" * size, "little")
    low = int.from_bytes(b"\x7f" * size, "little")
    ones = int.from_bytes(b"\x01" * n, "little")
    even_offsets = range(0, evens * n, n)
    odd_offsets = range(evens * n, size, n)
    unpack_from = struct.Struct(f"{n}b").unpack_from
    acc = signs = 0
    for walk in range(1 << (n - 1 - h)):
        if walk:
            bit = walk & -walk
            signs ^= bit
            step = steps[bit.bit_length() - 1]
            packed = packed - step if signs & bit else packed + step
        sums = packed ^ high
        zeros = _zero_flags(sums, low, high) * ones
        keep = zeros.to_bytes(size + n, "little")[n - 1 : size : n].translate(_KEEP)
        signed = repeat(sums.to_bytes(size, "little"))
        p = sum(map(math.prod, map(unpack_from, signed, compress(even_offsets, keep)))) - sum(
            map(math.prod, map(unpack_from, signed, compress(odd_offsets, keep[evens:])))
        )
        acc += -p if walk & 1 else p  # odd walk: an odd number of walked signs negative
    return acc >> (n - 1)


def count_permanent(g: Digraph) -> CountPair:
    """derangements = perm(A), permutations = perm(A + I): two Glynn passes
    (_glynn), one over the columns of A and one over those of A + I."""
    n = g.n
    if n > PERMANENT_MAX_N:
        raise ValueError(f"permanent counting limited to n <= {PERMANENT_MAX_N}")
    cols = [0] * n
    for u, v in g.edges:
        cols[v] += 1 << 8 * u
    return CountPair(
        derangements=_glynn(cols, n),
        permutations=_glynn([c + (1 << 8 * j) for j, c in enumerate(cols)], n),
    )


def check_layered_k(k: int) -> None:
    """ValueError when count_layered refuses part size k."""
    if k > LAYERED_MAX_K:
        raise ValueError(f"layered counting limited to k <= {LAYERED_MAX_K}")


def count_layered(g: SampledSubgraph) -> CountPair:
    """Exact counts using the layered structure of blow-up subgraphs.

    Every permutation fixes the same number i of vertices in each part and
    matches the non-fixed vertices of part c perfectly into the non-fixed
    vertices of part c+1.  Summing over i:

        permutations = sum_i trace(T_1^(i) ... T_ell^(i))

    where T_c^(i) is indexed by pairs of i-subsets (F of part c, F' of part
    c+1) with entry = number of perfect matchings of layer c avoiding F and
    F'.  One list of packed tables per layer (see _layer_tables) holds these
    entries for every i at once: T_c^(i)[F][F'] is field full ^ F' of
    tables[F].  The end sizes take no matrices: the i = 0 term is the
    derangement count, the product of each layer's perfect-matching count,
    the top field of tables[0], and the i = k term is 1, the identity.  For
    0 < i < k, row F of T_c^(i) is one itemgetter gather of C(k, i) >= 2
    fields (so a tuple) from tables[F] read into an array in native byte
    order.  That keeps each field's own bytes in the array's order, but a
    big-endian int starts at its top field: field U is array item U on a
    little-endian machine and item full ^ U on a big-endian one, so the
    gather keys are full ^ F' on the first and F' on the second.  A size
    whose matrix is all zero in some layer adds nothing and builds no further
    matrices.  The trace then takes ell - 2 dense matrix products.
    """
    k = g.k
    check_layered_k(k)
    full = (1 << k) - 1
    nbytes = _field_bytes(k)
    code, size = _ARRAY_CODES[nbytes], nbytes << k
    subsets_by_size: list[list[int]] = [[] for _ in range(k + 1)]
    for mask in range(1 << k):
        subsets_by_size[mask.bit_count()].append(mask)
    sizes = range(1, k)
    flip = full if sys.byteorder == "little" else 0  # array item of field full ^ F'
    get_row = {i: itemgetter(*[flip ^ f for f in subsets_by_size[i]]) for i in sizes}

    # mats[i] holds T_c^(i) for the layers so far; size i leaves once a layer's is zero
    mats = {i: [] for i in sizes}
    derangements = 1
    for rows in g.layers:
        tables = _layer_tables(rows, k)
        derangements *= tables[0] >> (8 * nbytes * full)
        for i in list(mats):
            get = get_row[i]
            mat = [
                get(array(code, tables[f].to_bytes(size, sys.byteorder)))
                for f in subsets_by_size[i]
            ]
            if any(map(any, mat)):
                mats[i].append(mat)
            else:
                del mats[i]
        del tables  # freed before the next layer's tables are built
    permutations = derangements + 1 + sum(map(_trace_product, mats.values()))
    return CountPair(derangements=derangements, permutations=permutations)


def _field_bytes(k: int) -> int:
    """Bytes per field of a layer table: the smallest of 1, 2 and 4 whose
    fields hold k!, the largest count a field can reach."""
    return next(n for n in (1, 2, 4) if math.factorial(k) < 1 << 8 * n)


# array typecode of each field width, chosen by item size, which C fixes
# only as a minimum
_ARRAY_CODES = {n: next(c for c in "BHIL" if array(c).itemsize == n) for n in (1, 2, 4)}


@functools.cache
def _column_masks(k: int) -> tuple[int, ...]:
    """The k column masks of _layer_tables, made once per process per k:
    mask j has all ones in the W-bit fields of the 2^k whose index U lacks
    bit j, W = 8 * _field_bytes(k).  At k = 12 they take 12 * 4 B * 4096,
    about 192 KB."""
    nbytes = _field_bytes(k)
    # mask j repeats 2^j full fields then 2^j empty ones, 2^(k-1-j) times
    runs = [b"\xff" * (nbytes << j) + b"\x00" * (nbytes << j) for j in range(k)]
    return tuple(int.from_bytes(run * (1 << (k - 1 - j)), "little") for j, run in enumerate(runs))


def _layer_tables(rows, k: int) -> list[int]:
    """Perfect-matching counts of every minor of one layer, one packed int
    per fixed set: field U of tables[F] counts the matchings of the rows
    outside the fixed set F into the used columns U, so the minor that drops
    rows F and columns F' is field full ^ F' of tables[F], and every field
    with |F| + |U| != k is 0.  Field U sits in the W bits at offset U * W,
    W = 8 * _field_bytes(k).

    Walks the k rows in order; each row is either fixed (its bit joins F)
    or matched to a free column it has an edge to (that bit joins U).
    Before row t the list holds 2^t tables.  Matching row t to column j
    moves those fields of a table whose U lacks bit j up by W * 2^j bits:
    one mask (_column_masks), one shift and one add per column, summed into
    the table's entry of `matched`.  Fixing the row keeps each table as the
    one of F | 1 << t, so the tables after the row are `matched + tables`.  No
    field carries: a field counts injections of the non-fixed rows into U,
    at most |U|! <= k! < 2^W, and every addend is nonnegative, so no partial
    sum exceeds its final value.
    """
    width = 8 * _field_bytes(k)
    masks = _column_masks(k)
    tables = [1]  # before row 0: the empty state, one way
    for row in rows:
        cols = [(masks[j], width << j) for j in range(k) if (row >> j) & 1]
        matched = []
        for x in tables:
            m = 0
            for mask, shift in cols:
                m += (x & mask) << shift
            matched.append(m)
        tables = matched + tables
    return tables


def _trace_product(mats) -> int:
    """trace(M_1 * ... * M_t) for t >= 2 square big-int matrices: dense
    products up to M_(t-1), then the diagonal sum of P[x][y] * M_t[y][x]."""
    *head, last = mats
    m = head[0]
    for nxt in head[1:]:
        cols = list(zip(*nxt))
        m = [[sum(map(mul, row, col)) for col in cols] for row in m]
    return sum(sum(map(mul, row, col)) for row, col in zip(m, zip(*last)))


def count(g: Digraph | SampledSubgraph) -> tuple[str, CountPair]:
    """Count with the counter the graph calls for; return its name and the
    counts: "layered" for a blow-up subgraph, "permanent" for a digraph."""
    if isinstance(g, SampledSubgraph):
        return "layered", count_layered(g)
    return "permanent", count_permanent(g)
