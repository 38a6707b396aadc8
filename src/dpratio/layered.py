"""The transfer-matrix counter of blow-up subgraphs, cost exponential in k,
not in k*ell: `counts`, reached through `dpratio.counting.count_layered`,
which guards k first.

Every permutation fixes the same number i of vertices in each part and
matches the non-fixed vertices of part c perfectly into the non-fixed
vertices of part c+1.  Summing over i:

    permutations = sum_i trace(T_1^(i) ... T_ell^(i))

where T_c^(i) is indexed by pairs of i-subsets (F of part c, F' of part
c+1), its entry the number of perfect matchings of layer c avoiding F and
F'.  The i = 0 term is the derangement count, the product of the layers'
perfect-matching counts, and the i = k term is 1, the identity.

One perfect-matching DP per layer (_layer_tables) gives the entries for
every i at once.  It keeps one packed table per set F of fixed rows, field
U, of W whole bytes with k! < 2^W, counting the matchings into the used
columns U, and moves every field of a table at once with big-int shifts
and masks; no field carries, since a count is at most |U|! <= k! and every
addend is nonnegative.  Tables of fixed sets of different sizes never share a
nonzero field, so one int, a chunk of 2^k fields, adds several of them,
by a per-k layout (_layout), and a layer ends in C(k, floor(k/2)) chunks
instead of 2^k, Sperner's bound on an antichain of subsets (924 at k =
12).  Every layer but the last runs on its transposed rows, so it gives
the columns of its matrices.

At ell = 2 (_count_two_layers) the trace is the dot of the first layer's
chunks with the last layer's, and by Tellegen's transposition principle
(Bostan, Lecerf and Schost, ISSAC 2003) it equals the last layer's DP run
backward, each row's step transposed, on the first layer's chunks: no
chunk is read as vectors and no dot is taken.  Each stage takes as few
whole bytes a field as it needs (_walk_widths): the first layer those of
k!, the walk's chunks before row t those of a bound that grows as the walk
goes back, where it re-spreads its chunks' fields once (_widen).

At ell >= 3, for 0 < i < k, each chunk is unpacked once into its fields
(`dpratio.packed`) and read as row F of T^(|F|), one vector per fixed set
tagged with |F| (_layer_vectors, _readers): the middle layers give
columns, the last gives rows, in one order, the entries of a vector in
the order of the vectors of its size.  With P = T_1 ... T_(ell-1),

    trace(P T_ell) = sum_F column F of P . row F of T_ell.

Each column of P is one Kronecker-packed int (D. Harvey, J. Symbolic
Comput. 2009, section 2), its fields sized once for the chain by the
C(k, i)^(ell-2) (k-i)!^(ell-1) bound of any entry of P^(i): each entry of
a layer adds one big-int multiple of a whole column (_column_products),
and no field carries.  Each packed column is unpacked once, in the order
of the last layer's rows, for its closing dot.
"""

from __future__ import annotations

import functools
import math
from itertools import chain
from operator import itemgetter, mul

from .packed import field_width, pack, unpack


def counts(layers, k: int) -> tuple[int, int]:
    """(derangements, permutations) of the blow-up subgraph whose layer c
    has the k row masks layers[c] (see the module docstring)."""
    first, *middle, last = layers
    if not middle:
        return _count_two_layers(first, last, k)
    ell = len(layers)
    nbytes = field_width(math.factorial(k))
    derangements, cols = _layer_vectors(_transpose(first, k), k, nbytes)
    widths = {
        i: field_width(math.comb(k, i) ** (ell - 2) * math.factorial(k - i) ** (ell - 1))
        for i in range(1, k)
    }
    packed = {i: [] for i in widths}
    for i, col in cols:
        packed[i].append(pack(col, widths[i]))
    for rows in middle:
        matchings, layer_cols = _layer_vectors(_transpose(rows, k), k, nbytes)
        derangements *= matchings
        packed = _column_products(packed, layer_cols)
    columns = {i: iter(cols_i) for i, cols_i in packed.items()}
    matchings, rows = _layer_vectors(last, k, nbytes)
    # each row of T_ell meets the next packed column of P of its size
    traces = sum(
        sum(map(mul, unpack(next(columns[i]), widths[i], len(row)), row)) for i, row in rows
    )
    derangements *= matchings
    return derangements, derangements + 1 + traces


def _count_two_layers(first, last, k: int) -> tuple[int, int]:
    """counts at ell = 2: Y by the transposed DP of the last layer walked
    back over the first layer's chunks, X by one matched-only DP.

    Both layers share _layout(k), so chunk c of each holds the same fixed
    sets, and tables of different sizes in one chunk never share a nonzero
    field: Y = sum_c <A_c, B_c>, A the first layer's chunks and B = L_(k-1)
    ... L_0 e the last layer's, L_t the linear step of row t in
    _layer_tables and e the one chunk before row 0, 1 in field 0.  By
    transposition, Y = <L_0^T ... L_(k-1)^T A, e>: field 0 of the one chunk
    left after the rows are walked back from k - 1 to 0 on A
    (_transposed_row), the i = 0 and i = k terms included.  Only two
    fields are ever read, both by shifts, so no width needs a struct code.
    Each chunk is dropped once read, so the walk holds little more than the
    first layer's chunks.

    X is the product of the layers' perfect-matching counts: the top field
    of the first layer's chunk 0, and field full of one chunk walked
    through the last layer's rows, each matched only, at the first layer's
    width."""
    widths = _walk_widths(k)
    nbytes = widths[k]
    after = _layer_tables(_transpose(first, k), k, nbytes)
    derangements = after[0] >> 8 * nbytes * ((1 << k) - 1)  # the top field
    steps = _layout(k)[0]
    for t in reversed(range(k)):
        after = _transposed_row(after, last[t], steps[t], k, widths[t + 1], widths[t])
    permutations = after[0] & ((1 << 8 * widths[0]) - 1)
    width = 8 * nbytes
    masks = _column_masks(k, nbytes)
    matched = 1
    for row in last:
        matched = sum((matched & masks[j]) << (width << j) for j in range(k) if (row >> j) & 1)
    derangements *= matched >> width * ((1 << k) - 1)
    return derangements, permutations


def _transposed_row(after: list[int], row: int, step, k: int, old: int, nbytes: int) -> list[int]:
    """The chunks before row t of _count_two_layers' walk, nbytes a field,
    from the chunks after it, old <= nbytes a field; row is the last
    layer's row t and step its _layout step.

    The step of row t in _layer_tables moves field U to field U | 1 << j
    for each column j of the row that U lacks, and adds the fixed form of
    each chunk d to one chunk after the row: chunk c with partners[c] = d,
    or d's slot among the rest.  Its transpose gives chunk d before the row
    as sum_j ((after_d >> W * 2^j) & mask_j), over the row's columns j, plus
    that chunk, W = 8 * nbytes.  Each chunk after the row is widened to
    nbytes once read (_widen) and dropped from after."""
    partners, rest = step
    width = 8 * nbytes
    masks = _column_masks(k, nbytes)
    cols = [(masks[j], width << j) for j in range(k) if (row >> j) & 1]
    before = [0] * len(partners)
    # after chunk c holds the matched form of chunk c, if c < len(partners),
    # and the fixed form of chunk d, if d is not None
    for c, d in enumerate(partners + rest):
        y, after[c] = after[c], None
        if old != nbytes:
            y = _widen(y, k, old, nbytes)
        if d is not None:
            before[d] += y
        if c < len(before):
            for mask, up in cols:
                before[c] += (y >> up) & mask
    return before


@functools.cache
def _walk_widths(k: int) -> tuple[int, ...]:
    """Bytes per field of _count_two_layers' chunks before row t, for t =
    0..k, t = k being the first layer's chunks: the byte length of the
    largest bound below on a field there, made once per process per k.

    A field of a chunk before row t, at |U| = u, sums a field of the first
    layer, at most |U'|! for U' its used columns, over the ways to walk rows
    t..k-1, each fixed or matched into a column outside U: with j rows
    matched, C(k - t, j) (k - u)!/(k - u - j)! walks, each ending at |U'| =
    u + j.  Term j + 1 of that sum is term j times (k - t - j)(k - u - j)(u
    + j + 1)/(j + 1), exactly.  At t = k the sum is u!, so the first layer
    takes k!'s bytes.  Every addend is nonnegative, so no field passes its
    bound and none carries."""
    widths = []
    for t in range(k + 1):
        top = 0
        fact = 1  # u!
        for u in range(k + 1):
            fact *= u or 1
            term = total = fact
            for j in range(min(k - t, k - u)):
                term = term * (k - t - j) * (k - u - j) * (u + j + 1) // (j + 1)
                total += term
            top = max(top, total)
        widths.append((top.bit_length() + 7) // 8)
    return tuple(widths)


def _widen(x: int, k: int, old: int, nbytes: int) -> int:
    """The 2^k fields of x, old bytes each, re-spread to nbytes >= old
    bytes each: byte b of each field moves by one extended slice."""
    raw = x.to_bytes(old << k, "little")
    wide = bytearray(nbytes << k)
    for b in range(old):
        wide[b::nbytes] = raw[b::old]
    return int.from_bytes(wide, "little")


def _transpose(rows, k: int) -> list[int]:
    """The row masks of a layer with its edges reversed: bit r of row j is
    bit j of rows[r]."""
    return [sum(((row >> j) & 1) << r for r, row in enumerate(rows)) for j in range(k)]


@functools.cache
def _column_masks(k: int, nbytes: int) -> tuple[int, ...]:
    """The k column masks of _layer_tables, made once per process per k
    and width: mask j has all ones in the nbytes-wide fields of a chunk's
    2^k whose index lacks bit j.  At k = 12 they take 12 * 4 B * 4096,
    about 192 KB; the ell = 2 route adds its walk's widths, 5 to 8 bytes,
    about 1.3 MB more."""
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
    fixed sets that _layout lists for it, all of different sizes, so table
    F is the fields |U| = k - |F| of its chunk.

    Walks the k rows in order; each row is either fixed (its bit joins F)
    or matched to a free column it has an edge to (that bit joins U).
    Matching row t to column j moves those fields of each table whose U
    lacks bit j up by W * 2^j bits: one mask (_column_masks), one shift and
    one add per column.  Fixing the row keeps each table as the one of
    F | 1 << t, so chunk c after the row is the fixed form of its partner
    chunk d, if _layout's step gives it one, plus the matched form of chunk
    c, and the fixed forms of the chunks the step leaves over follow, each
    a chunk of its own.  The sum stays separable: after row t, table F is
    nonzero only at |U| = t + 1 - |F|, and the next row matches every table
    by the same linear map and relabels F alike.  No field carries: a field
    counts injections of the non-fixed rows into U, at most |U|! <= k! <
    2^W, every addend is nonnegative, and the tables added into one chunk
    have no nonzero field in common.
    """
    width = 8 * nbytes
    masks = _column_masks(k, nbytes)
    chunks = [1]  # before row 0: the empty state, one way
    for row, (partners, rest) in zip(rows, _layout(k)[0]):
        cols = [(masks[j], width << j) for j in range(k) if (row >> j) & 1]
        grown = []
        for x, d in zip(chunks, partners):
            y = 0 if d is None else chunks[d]
            for mask, up in cols:
                y += (x & mask) << up
            grown.append(y)
        chunks = grown + [chunks[d] for d in rest]
    return chunks


@functools.cache
def _layout(k: int):
    """(steps, sets): how the chunks of _layer_tables add up, made once per
    process per k.

    steps[t] is (partners, rest) for row t: chunk c after the row is the
    matched form of chunk c before it plus the fixed form of chunk
    partners[c], or of none when that is None, and the fixed forms of the
    chunks in rest, in index order, start new chunks after those; each
    chunk before the row is a partner or in rest, once.  sets[c] lists the
    fixed sets of the tables in chunk c after the last row, one per size,
    in increasing size, chunk 0 holding the empty set first.

    The tables of two fixed sets can share a chunk when their sizes differ
    (see _layer_tables).  The sizes of a chunk run without a gap, so its
    matched form keeps them and its fixed form adds 1 to each.  One
    pairing rule: chunk c's partner is the lowest-index chunk not yet
    placed whose smallest size equals chunk c's largest.  That gives C(t +
    1, floor((t + 1)/2)) chunks after row t, the most sets of one size
    among the subsets of t + 1 rows, so no plan has fewer (Sperner).
    """
    sets, steps = [(0,)], []
    for t in range(k):
        waiting: dict[int, list[int]] = {}  # chunks by their smallest size, lowest index last
        for d in reversed(range(len(sets))):
            waiting.setdefault(sets[d][0].bit_count(), []).append(d)
        partners = []
        for fs in sets:
            ds = waiting.get(fs[-1].bit_count())
            partners.append(ds.pop() if ds else None)
        rest = sorted(chain.from_iterable(waiting.values()))
        fixed = [tuple(f | 1 << t for f in fs) for fs in sets]
        sets = [fs + (() if d is None else fixed[d]) for fs, d in zip(sets, partners)]
        sets += [fixed[d] for d in rest]
        steps.append((tuple(partners), tuple(rest)))
    return tuple(steps), tuple(sets)



@functools.cache
def _readers(k: int):
    """How the ell >= 3 route reads the chunks of _layer_tables as vectors,
    made once per process per k, and only there: the ell = 2 route reads no
    vector.

    readers[c] holds one (i, getter) pair per fixed set F of chunk c with 0
    < i = |F| < k, in the order of _layout's sets: the getter reads, from
    the fields of the chunk (unpack), row F of T^(i), the fields full ^ x
    for the i-subsets x in the order sets lists them, since the chunk's
    other tables are 0 there.  That is the order of the size-i vectors, so
    the entries of every vector line up with the vectors of its size.  One
    getter per size i, shared by every chunk; the getters hold about one
    key per field of a chunk, 2^12 at k = 12.
    """
    sets = _layout(k)[1]
    full = (1 << k) - 1
    keys: list[list[int]] = [[] for _ in range(k + 1)]
    for f in chain.from_iterable(sets):
        keys[f.bit_count()].append(full ^ f)
    getters = {i: itemgetter(*keys[i]) for i in range(1, k)}
    sizes = [[f.bit_count() for f in fs if 0 < f.bit_count() < k] for fs in sets]
    return tuple(tuple((i, getters[i]) for i in inner) for inner in sizes)


def _layer_vectors(rows, k: int, nbytes: int):
    """(m, vectors) of one layer: m its perfect-matching count, field full
    of table 0, and vectors, lazily, the pair (|F|, row F of T^(|F|) as a
    tuple) for each fixed set F with 0 < |F| < k, in _readers' order
    (vector order).  Each chunk of _layer_tables is unpacked once (unpack),
    read by _readers and dropped."""
    width = 8 * nbytes
    chunks = _layer_tables(rows, k, nbytes)
    matchings = (chunks[0] >> width * ((1 << k) - 1)) & ((1 << width) - 1)
    chunks.reverse()  # popped, so chunk 0 first
    fields = (unpack(chunks.pop(), nbytes, 1 << k) for _ in range(len(chunks)))
    return matchings, ((i, get(f)) for f, reads in zip(fields, _readers(k)) for i, get in reads)


def _column_products(packed: dict[int, list[int]], cols) -> dict[int, list[int]]:
    """The packed columns of P T^(i) for each size i, given packed[i], those
    of P^(i) in vector order, and the (i, column) pairs of T in vector
    order: column y of P T is sum_z T[z][y] * column z of P, entry z of a
    column of T lining up with column z of P^(i)."""
    product: dict[int, list[int]] = {i: [] for i in packed}
    for i, col in cols:
        product[i].append(sum(map(mul, col, packed[i])))
    return product
