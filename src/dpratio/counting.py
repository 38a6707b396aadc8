"""Exact permutation and derangement counting.

Two counters:

* count_permanent  -- Glynn permanents of A and of A+I, one pass each,
  any digraph with n <= 30: the sign patterns of up to 8 columns side by
  side in one packed int, a Gray-code walk over the rest; each step skips
  the patterns with a zero row sum (most of them, for a sparse digraph),
  found with one table lookup per row in tables built once per pass, which
  map each value a row's field held before the walk to the patterns that
  held it;
* count_layered    -- transfer-matrix over per-part fixed sets, the
  workhorse for blow-up subgraphs (cost exponential in k, not in k*ell);
  one perfect-matching DP per layer gives its matrix entries for every
  fixed-set size i at once.  The DP keeps one packed table per set F of
  fixed rows: the count of used columns U sits in field U, of W = 8, 16,
  32 or 64 bits, the smallest with k! < 2^W, and each row moves every field
  of a table at once with big-int shifts and masks.  No field carries,
  since a count is at most |U|! <= k! and every addend is nonnegative.
  The k column masks span the 2^k fields of one table; they depend only
  on k, so they are made once per process (functools.cache) and kept for
  every later layer and call (192 KB at k = 12).  Tables of fixed sets of
  different sizes never share a nonzero field, so one int, a chunk of 2^k
  fields, adds several of them: a per-k plan, made once, pairs each
  chunk's matched form with at most one fixed form row by row, and a layer
  ends in C(k, floor(k/2)) chunks instead of 2^k, Sperner's bound on an
  antichain of subsets (924 of 16 KB at k = 12).  Each chunk is read once,
  as a typed view in native byte order, one `operator.itemgetter` call per
  fixed set, by the size of the set, in the plan's order of the sets.
  Every layer but the last runs on its transposed rows, so it gives the
  columns of its matrices; the last gives rows.  The trace closes with one
  dot product per fixed set, a column of T_1 ... T_(ell-1) with a row of
  T_ell; at ell >= 3 the product's columns are Kronecker-packed ints
  (D. Harvey, J. Symbolic Comput. 2009, section 2), so each entry of a
  layer adds one big-int multiple of a whole column.  The end sizes are
  closed forms: i = 0 is the product of the layers' perfect-matching
  counts and i = k the identity alone.

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
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import itemgetter, mul, or_

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
#: packed int of _glynn, 256 patterns a step.  With the per-row lookup,
#: widths 6..10 took, in ms (the fastest of 8 fresh processes, each the
#: fastest of 7 runs; 2 vCPUs): the permanents of the 50 `verify --profile
#: tiny` cross-check graphs 55/44/44/43/47, K_16 31/29/27/26/27, K_18
#: 135/128/124/117/123; over 10 more alternating processes widths 9 and 10
#: beat 8 in 6/6/5 and 6/4/2 of 10 (cross-check, K_16, K_18): a tie, so 8
_GLYNN_BATCH = 8


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


def _value_masks(fields: bytes, values: range) -> dict[int, int]:
    """For each v of values that fields holds, the int with a 1 in byte b
    for each b with fields[b] == v, and 0 in every other byte."""
    flags = {v: bytes(v) + b"\x01" + bytes(255 - v) for v in values if v in fields}  # v -> 1
    return {v: int.from_bytes(fields.translate(flag), "little") for v, flag in flags.items()}


def _glynn(cols: list[int], n: int) -> int:
    """perm(M) for the n x n matrix M whose column j is cols[j], packed one
    byte per row (row i in bits 8*i .. 8*i + 7).

    Glynn: 2^(n-1) perm = sum over column signs delta with delta_0 = +1 of
    prod_j delta_j * prod_i (sum_j delta_j m_ij), by perm(M) = perm(M^T).
    The 2^h patterns of columns 1..h, h = min(n - 1, _GLYNN_BATCH), sit in
    n-byte blocks of one int (_sign_blocks).  The other n - 1 - h signs walk
    the Gray code (_glynn_steps), so each step flips one sign and moves
    every block at once by one add or subtract of twice that packed column.

    Each field is 128 + sum_j delta_j m_ij.  count_permanent passes A or
    A + I of a digraph, whose rows sum to at most n <= PERMANENT_MAX_N = 30,
    so every field stays in [98, 158] within its byte: the packed sums equal
    the per-field sums, with no borrow or carry between fields.  XOR with
    0x80 in every byte turns each field into its row sum as a two's
    complement byte.  A block with a zero row sum adds nothing, so only the
    blocks a step keeps are read, each as n signed bytes (struct "b"), and
    their row-sum products are summed in C.
    O(2^(n-1) * n).
    """
    if n == 0:
        return 1
    h = min(n - 1, _GLYNN_BATCH)
    size = n << h
    evens = ((1 << h) + 1) >> 1
    high = int.from_bytes(b"\x80" * size, "little")
    even_offsets = range(0, evens * n, n)
    odd_offsets = range(evens * n, size, n)
    unpack_from = struct.Struct(f"{n}b").unpack_from
    acc = 0
    for walk, packed, keep in _glynn_steps(cols, n, h):
        signed = repeat((packed ^ high).to_bytes(size, "little"))
        p = sum(map(math.prod, map(unpack_from, signed, compress(even_offsets, keep)))) - sum(
            map(math.prod, map(unpack_from, signed, compress(odd_offsets, keep[evens:])))
        )
        acc += -p if walk & 1 else p  # odd walk: an odd number of walked signs negative
    return acc >> (n - 1)


def _glynn_steps(cols: list[int], n: int, h: int):
    """(walk, packed, keep) for each step of _glynn's Gray walk that keeps
    a block: packed holds the step's blocks, and keep is 1 in the byte of
    each block with no zero row sum, 0 in the others.

    Most blocks of a sparse matrix have a zero row sum, so the search for
    them is done once, before the walk.  A step moves field i of every
    block by the same amount, minus twice the walked entries of row i that
    are negative, so row i's sum is zero at a step exactly in the blocks
    whose field i was, before the walk, 128 plus twice those entries: byte
    i of `target`, which stays in [128, 128 + 2 * (n + 1)] within its byte.
    zeros[i] maps each value field i can match (_value_masks) to the blocks
    that held it before the walk, one byte per block, so one lookup per row
    and their OR give the step's blocks with a zero row sum.  A step in
    which every block has one only moves `packed`.

    A walk of one step (h = n - 1, no walked column) builds no per-row
    tables: one mask flags every field at 128, and its product with n ones
    counts each block's flags in the block's top byte, at most n < 256."""
    blocks = 1 << h
    size = n << h
    packed = _sign_blocks(cols, n, h)
    fields = packed.to_bytes(size, "little")
    if h == n - 1:
        flags = _value_masks(fields, range(128, 129)).get(128, 0)
        counts = (flags * int.from_bytes(b"\x01" * n, "little")).to_bytes(size + n, "little")
        keep = counts[n - 1 : size : n].translate(b"\x01" + bytes(255))  # no zero row sum: 1
        if 1 in keep:
            yield 0, packed, keep
        return
    walked = sum(cols[h + 1 :]).to_bytes(n, "little")  # row i's walked entries sum to walked[i]
    zeros = [_value_masks(fields[i:size:n], range(128, 129 + 2 * w, 2)) for i, w in enumerate(walked)]
    every = int.from_bytes(b"\x01" * blocks, "little")
    twos = int.from_bytes((b"\x02" + b"\x00" * (n - 1)) * blocks, "little")
    steps = [(twos * cols[j], 2 * cols[j]) for j in range(h + 1, n)]
    target = int.from_bytes(b"\x80" * n, "little")
    nothing = repeat(0)  # dict.get's default: no block held that value
    signs = 0
    for walk in range(1 << (n - 1 - h)):
        if walk:
            bit = walk & -walk
            signs ^= bit
            step, row_step = steps[bit.bit_length() - 1]
            if signs & bit:
                packed -= step
                target += row_step
            else:
                packed += step
                target -= row_step
        skip = functools.reduce(or_, map(dict.get, zeros, target.to_bytes(n, "little"), nothing))
        if skip != every:
            yield walk, packed, (skip ^ every).to_bytes(blocks, "little")


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
    F'.  The end sizes take no matrices: the i = 0 term is the derangement
    count, the product of each layer's perfect-matching count, and the
    i = k term is 1, the identity.  For 0 < i < k, each layer's packed
    tables (_layer_tables) are read once, one vector per fixed set, in the
    order the chunks hold them (_layer_vectors, _readers): every layer but
    the last runs on its transposed rows, so its vectors are the columns of
    T_c, and the last one's are the rows of T_ell, in the same order, with
    entries in the order of the vectors of their size.  With
    P = T_1 ... T_(ell-1),

        trace(P T_ell) = sum_F column F of P . row F of T_ell.

    At ell = 2, P = T_1: its columns are read from its chunk views beside
    the last layer's rows, so no matrix is ever held as tuples.  Otherwise
    each column of P is one Kronecker-packed int (_pack), kept in vector
    order among those of its size, its fields sized once for the whole
    chain by the C(k, i)^(ell-2) (k-i)!^(ell-1) bound of any entry of P^(i)
    (_field_width): column y of P T_c is sum_z T_c[z][y] * column z of P,
    one big-int multiply-add per entry, and no field carries, since every
    addend is nonnegative and each field ends at most at its bound.  Each
    packed column is unpacked once (_unpack), in the order of the last
    layer's rows, for its closing dot.
    """
    k = g.k
    check_layered_k(k)
    nbytes = _field_width(math.factorial(k))
    if nbytes > 8:
        raise ValueError(f"no layer-table field of at most 8 bytes holds {k}! at k = {k}")
    *heads, last = g.layers
    derangements, cols = _layer_vectors(_transpose(heads[0], k), k, nbytes)
    if len(heads) > 1:
        ell = len(g.layers)
        sizes = _readers(k)[1]  # |F| of each vector, in vector order
        widths = {
            i: _field_width(math.comb(k, i) ** (ell - 2) * math.factorial(k - i) ** (ell - 1))
            for i in range(1, k)
        }
        packed = {i: [] for i in widths}
        for i, col in zip(sizes, cols):
            packed[i].append(_pack(col, widths[i]))
        for rows in heads[1:]:
            matchings, layer_cols = _layer_vectors(_transpose(rows, k), k, nbytes)
            derangements *= matchings
            packed = _column_products(packed, layer_cols, sizes)
        columns = {i: iter(cols_i) for i, cols_i in packed.items()}
        cols = (_unpack(next(columns[i]), widths[i], math.comb(k, i)) for i in sizes)
    matchings, rows = _layer_vectors(last, k, nbytes)
    # each column has as many entries as its row, so the dots run end to end
    traces = sum(map(mul, chain.from_iterable(cols), chain.from_iterable(rows)))
    derangements *= matchings
    return CountPair(derangements=derangements, permutations=derangements + 1 + traces)


def _transpose(rows, k: int) -> list[int]:
    """The row masks of a layer with its edges reversed: bit r of row j is
    bit j of rows[r]."""
    return [sum(((row >> j) & 1) << r for r, row in enumerate(rows)) for j in range(k)]


def _field_width(bound: int) -> int:
    """Bytes per field of the layer tables, the packed chain columns and the
    moment runs: the fewest of 1, 2, 4 and 8 that hold bound, or whole bytes
    past 8."""
    nbytes = max(1, (bound.bit_length() + 7) // 8)
    return nbytes if nbytes > 8 else 1 << (nbytes - 1).bit_length()


#: format code of each field width up to 8 bytes, the standard struct size
#: of _pack and _unpack and the native item size of the chunk views alike
_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

@functools.cache
def _column_masks(k: int, nbytes: int) -> tuple[int, ...]:
    """The k column masks of _layer_tables, made once per process per k:
    mask j has all ones in the nbytes-wide fields of a chunk's 2^k whose
    index lacks bit j.  At k = 12 they take 12 * 4 B * 4096, about 192 KB."""
    # mask j repeats 2^j full fields then 2^j empty ones
    runs = [b"\xff" * (nbytes << j) + b"\x00" * (nbytes << j) for j in range(k)]
    return tuple(int.from_bytes(run * (1 << (k - j - 1)), "little") for j, run in enumerate(runs))


def _layer_tables(rows, k: int, nbytes: int) -> list[int]:
    """Perfect-matching counts of every minor of one layer, in packed
    tables, one per fixed set: field U of table F counts the matchings of
    the rows outside the fixed set F into the used columns U, so the minor
    that drops rows F and columns F' is field full ^ F' of table F, and
    every field with |F| + |U| != k is 0.  A field is W = 8 * nbytes bits.
    The tables come added into chunks of 2^k fields, chunk c holding the
    fixed sets that _chunk_plan lists for it, all of different sizes, so
    table F is the fields |U| = k - |F| of its chunk.

    Walks the k rows in order; each row is either fixed (its bit joins F)
    or matched to a free column it has an edge to (that bit joins U).
    Matching row t to column j moves those fields of each table whose U
    lacks bit j up by W * 2^j bits: one mask (_column_masks), one shift and
    one add per column.  Fixing the row keeps each table as the one of
    F | 1 << t, so each chunk after the row adds the matched form of at
    most one chunk of the row before and the fixed form of at most one,
    as _chunk_plan names them.  The sum stays
    separable: after row t, table F is nonzero only at |U| = t + 1 - |F|,
    and the next row matches every table by the same linear map and
    relabels F alike.  No field carries: a field counts injections of the
    non-fixed rows into U, at most |U|! <= k! < 2^W, every addend is
    nonnegative, and the tables added into one chunk have no nonzero field
    in common.
    """
    width = 8 * nbytes
    masks = _column_masks(k, nbytes)
    chunks = [1]  # before row 0: the empty state, one way
    for row, step in zip(rows, _chunk_plan(k)[0]):
        cols = [(masks[j], width << j) for j in range(k) if (row >> j) & 1]
        grown = []
        for matched, fixed in step:
            x = 0
            for c in fixed:
                x += chunks[c]
            for c in matched:
                for mask, up in cols:
                    x += (chunks[c] & mask) << up
            grown.append(x)
        chunks = grown
    return chunks


@functools.cache
def _chunk_plan(k: int):
    """(steps, sets): which chunks of _layer_tables add into which, made
    once per process per k.  steps[t] lists, for each chunk after row t,
    the pair (matched, fixed) of the chunks before the row whose matched
    and whose fixed forms add into it, at most one of each; each chunk
    before the row is in one matched and one fixed list.  sets[c] lists
    the fixed sets of the tables in chunk c after the last row, one per
    size, in increasing size, chunk 0 holding the empty set first.

    The tables of two fixed sets can share a chunk when their sizes differ
    (see _layer_tables).  The sizes of a chunk run without a gap, so its
    matched form keeps them and its fixed form adds 1 to each.  One
    pairing rule: after row t, chunk c is the matched form of chunk c plus
    the fixed form of the lowest-index chunk not yet placed whose smallest
    size equals chunk c's largest; a fixed form that joins no chunk starts
    a new chunk at the end, in index order.  That gives C(t + 1,
    floor((t + 1)/2)) chunks after row t, the most sets of one size among
    the subsets of t + 1 rows, so no plan has fewer (Sperner).
    """
    sets, steps = [(0,)], []
    for t in range(k):
        waiting: dict[int, list[int]] = {}  # chunks by their smallest size, lowest index last
        for d in reversed(range(len(sets))):
            waiting.setdefault(sets[d][0].bit_count(), []).append(d)
        step, merged = [], []
        for c, fs in enumerate(sets):
            ds = waiting.get(fs[-1].bit_count())
            fixed = (ds.pop(),) if ds else ()
            step.append(((c,), fixed))
            merged.append(fs + tuple(f | 1 << t for d in fixed for f in sets[d]))
        for d in sorted(chain.from_iterable(waiting.values())):
            step.append(((), (d,)))
            merged.append(tuple(f | 1 << t for f in sets[d]))
        steps.append(tuple(step))
        sets = merged
    return tuple(steps), tuple(sets)


@functools.cache
def _readers(k: int):
    """(readers, sizes): readers[c] reads, from chunk c of _layer_tables
    viewed with field U as item U, the vectors of its fixed sets F with
    0 < |F| < k, in the order of _chunk_plan's sets: row F of T^(i),
    i = |F|, is the fields full ^ x of the chunk for the i-subsets x in
    the order the plan lists them, since the chunk's other tables are 0
    there.  That is the order of the size-i vectors, so the entries of
    every vector line up with the vectors of its size.  One getter per
    size i, shared by every chunk; sizes[v] is |F| of vector v.  Made once
    per process per k, with about one key per field of a chunk, 2^12 at
    k = 12."""
    full = (1 << k) - 1
    sets = _chunk_plan(k)[1]
    keys: list[list[int]] = [[] for _ in range(k + 1)]
    for f in chain.from_iterable(sets):
        keys[f.bit_count()].append(full ^ f)
    getters = {i: itemgetter(*keys[i]) for i in range(1, k)}
    inner = [[f.bit_count() for f in fs if 0 < f.bit_count() < k] for fs in sets]
    return tuple(tuple(map(getters.get, sizes)) for sizes in inner), tuple(chain.from_iterable(inner))


def _layer_vectors(rows, k: int, nbytes: int):
    """(m, vectors) of one layer: m its perfect-matching count, field full
    of table 0, and vectors, lazily, row F of T^(|F|) as a tuple for each
    fixed set F with 0 < |F| < k, in the order of _readers' sizes (vector order).  Each
    chunk of _layer_tables is popped as it turns into bytes in native
    order, viewed as fields of its width (memoryview.cast, no copy), and
    read once by the getters of _readers.  The view keeps each field's own
    bytes in native order, but a big-endian int starts at its top field, so
    there the view is read reversed (a negative stride, no copy either)."""
    order = sys.byteorder
    width = 8 * nbytes
    chunks = _layer_tables(rows, k, nbytes)
    matchings = (chunks[0] >> width * ((1 << k) - 1)) & ((1 << width) - 1)
    code, size = _CODES[nbytes], nbytes << k
    # popped from the end, so views holds the chunks last first
    views = [memoryview(chunks.pop().to_bytes(size, order)).cast(code) for _ in range(len(chunks))]
    if order == "big":
        views = [view[::-1] for view in views]
    return matchings, _read(views, _readers(k)[0])


def _read(views: list[memoryview], readers):
    """The vectors of _layer_vectors from its chunk views, last chunk
    first, each view dropped once read."""
    for gets in readers:
        chunk = views.pop()
        for get in gets:
            yield get(chunk)


def _column_products(packed: dict[int, list[int]], cols, sizes) -> dict[int, list[int]]:
    """The packed columns of P T^(i) for each size i, given packed[i], those
    of P^(i) in vector order, and the columns of T in vector order, sizes
    giving the size of each: column y of P T is sum_z T[z][y] * column z
    of P, entry z of a column of T lining up with column z of P^(i)."""
    product: dict[int, list[int]] = {i: [] for i in packed}
    for i, col in zip(sizes, cols):
        product[i].append(sum(map(mul, col, packed[i])))
    return product


def _pack(col, nbytes: int) -> int:
    """col as one int, entry x in the nbytes-wide field at byte x * nbytes."""
    if nbytes in _CODES:
        raw = struct.pack(f"<{len(col)}{_CODES[nbytes]}", *col)
    else:
        raw = b"".join(map(int.to_bytes, col, repeat(nbytes), repeat("little")))
    return int.from_bytes(raw, "little")


def _unpack(x: int, nbytes: int, n: int) -> tuple[int, ...]:
    """The n fields of x, low first, nbytes each: the inverse of _pack."""
    raw = x.to_bytes(n * nbytes, "little")
    if nbytes in _CODES:
        return struct.unpack(f"<{n}{_CODES[nbytes]}", raw)
    return tuple(int.from_bytes(raw[j : j + nbytes], "little") for j in range(0, len(raw), nbytes))


def count(g: Digraph | SampledSubgraph) -> tuple[str, CountPair]:
    """Count with the counter the graph calls for; return its name and the
    counts: "layered" for a blow-up subgraph, "permanent" for a digraph."""
    if isinstance(g, SampledSubgraph):
        return "layered", count_layered(g)
    return "permanent", count_permanent(g)
