"""Exact permutation and derangement counting.

Two counters:

* count_permanent  -- permanents of A and of A+I, any digraph with n <= 30,
  by the Glynn kernel of `dpratio.permanent`, each the product of its
  matrix's connected components' permanents, so A of a blow-up subgraph
  takes Glynns of at most k columns, not one of k*ell;
* count_layered    -- transfer-matrix over per-part fixed sets, the
  workhorse for blow-up subgraphs (cost exponential in k, not in k*ell);
  one perfect-matching DP per layer gives its matrix entries for every
  fixed-set size i at once.  The DP keeps one packed table per set F of
  fixed rows: the count of used columns U sits in field U, of W whole
  bytes with k! < 2^W, and each row moves every field of a table at once
  with big-int shifts and masks.  No field carries, since a count is at
  most |U|! <= k! and every addend is nonnegative.
  The k column masks span the 2^k fields of one table; they depend only
  on k and W, so they are made once per process (functools.cache) and kept
  for every later layer and call (192 KB at k = 12 and 4-byte fields, 1.5
  MB for the 4- to 8-byte fields of the ell = 2 route).  Tables of fixed
  sets of different sizes never share a nonzero field, so one int, a
  chunk of 2^k fields, adds several of them: a per-k layout, made once,
  gives row by row each chunk's matched form the fixed form of at most
  one partner chunk, each fixed form left over starting a chunk of its
  own, and a layer ends in C(k, floor(k/2)) chunks instead of 2^k,
  Sperner's bound on an antichain of subsets (924 of 16 KB at k = 12).  The first layer runs
  on its transposed rows, so it gives the columns of its matrices.
  At ell = 2 the trace is the dot of the first layer's chunks with the
  last layer's, and by Tellegen's transposition principle (Bostan, Lecerf
  and Schost, ISSAC 2003) it equals the last layer's DP run backward, each
  row's step transposed, on the first layer's chunks: no chunk is read as
  vectors and no dot is taken.  Its fields take whole bytes, as few as
  each stage needs: the first layer's those of k!, and the walk's chunks
  before row t those of a bound on any sum of first-layer fields over the
  ways to walk rows t..k-1, which grows as the walk goes back (4 bytes at
  row 0 at k = 8, the 2 of k! at the first layer); where it grows, the
  walk re-spreads its chunks' fields once.  Only two fields are read, by
  shifts, so these widths need no struct code.
  At ell >= 3 each chunk is unpacked once into its fields (`dpratio.packed`)
  and read by one `operator.itemgetter` call per fixed set, by the size of
  the set, in the layout's order of the sets (getters made once per k, by
  this route only); the middle layers also give columns, the last gives
  rows, and the trace closes with one dot product per fixed
  set, a column of T_1 ... T_(ell-1) with a row of T_ell.  The
  product's columns are Kronecker-packed ints (D. Harvey, J. Symbolic
  Comput. 2009, section 2), so each entry of a layer adds one big-int
  multiple of a whole column.  The end sizes are closed forms: i = 0 is
  the product of the layers' perfect-matching counts and i = k the
  identity alone.

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
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import itemgetter, mul

from . import permanent
from .digraph import Digraph, SampledSubgraph
from .packed import field_width, pack, unpack

PERMANENT_MAX_N = 30
LAYERED_MAX_K = 12


@dataclass(frozen=True)
class CountPair:
    """Exact derangement and permutation counts for one digraph."""

    derangements: int
    permutations: int

    def ratio(self) -> Fraction:
        return Fraction(self.derangements, self.permutations)


def count_permanent(g: Digraph) -> CountPair:
    """derangements = perm(A), permutations = perm(A + I), each a product
    over the connected components of the matrix's bipartite graph
    (permanent.permanent), one Glynn pass per component larger than 1 x 1.
    In a blow-up subgraph A joins the rows of one part only to the columns
    of the next, so perm(A) takes Glynns of at most k columns, not one of
    k*ell.  A + I also joins row v to column v, so its components are the
    digraph's weakly connected ones, and Y of a weakly connected digraph
    is one Glynn of all n columns."""
    n = g.n
    if n > PERMANENT_MAX_N:
        raise ValueError(f"permanent counting limited to n <= {PERMANENT_MAX_N}")
    cols = [0] * n
    for u, v in g.edges:
        cols[v] += 1 << 8 * u
    return CountPair(
        derangements=permanent.permanent(cols, n),
        permutations=permanent.permanent([c + (1 << 8 * j) for j, c in enumerate(cols)], n),
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
    i = k term is 1, the identity.

    At ell = 2 the trace takes no vectors either: it is the first layer's
    packed tables, transposed, dotted with the last layer's, which the
    last layer's DP run backward over the first layer's chunks gives at
    once, the end sizes included (_count_two_layers).

    At ell >= 3, for 0 < i < k, each layer's packed tables (_layer_tables)
    are read once, one vector per fixed set, in the order the chunks hold
    them (_layer_vectors, _readers): every layer but the last runs on its
    transposed rows, so its vectors are the columns of T_c, and the last
    one's are the rows of T_ell, in the same order, with entries in the
    order of the vectors of their size.  With P = T_1 ... T_(ell-1),

        trace(P T_ell) = sum_F column F of P . row F of T_ell.

    Each column of P is one Kronecker-packed int (pack), kept in vector
    order among those of its size, its fields sized once for the whole
    chain by the C(k, i)^(ell-2) (k-i)!^(ell-1) bound of any entry of P^(i)
    (field_width): column y of P T_c is sum_z T_c[z][y] * column z of P,
    one big-int multiply-add per entry, and no field carries, since every
    addend is nonnegative and each field ends at most at its bound.  Each
    packed column is unpacked once (unpack), in the order of the last
    layer's rows, for its closing dot.
    """
    k = g.k
    check_layered_k(k)
    first, *middle, last = g.layers
    if not middle:
        return _count_two_layers(first, last, k)
    ell = len(g.layers)
    nbytes = field_width(math.factorial(k))
    derangements, cols = _layer_vectors(_transpose(first, k), k, nbytes)
    sizes = _readers(k)[1]  # |F| of each vector, in vector order
    widths = {
        i: field_width(math.comb(k, i) ** (ell - 2) * math.factorial(k - i) ** (ell - 1))
        for i in range(1, k)
    }
    packed = {i: [] for i in widths}
    for i, col in zip(sizes, cols):
        packed[i].append(pack(col, widths[i]))
    for rows in middle:
        matchings, layer_cols = _layer_vectors(_transpose(rows, k), k, nbytes)
        derangements *= matchings
        packed = _column_products(packed, layer_cols, sizes)
    columns = {i: iter(cols_i) for i, cols_i in packed.items()}
    cols = (unpack(next(columns[i]), widths[i], math.comb(k, i)) for i in sizes)
    matchings, rows = _layer_vectors(last, k, nbytes)
    # each column has as many entries as its row, so the dots run end to end
    traces = sum(map(mul, chain.from_iterable(cols), chain.from_iterable(rows)))
    derangements *= matchings
    return CountPair(derangements=derangements, permutations=derangements + 1 + traces)


def _count_two_layers(first, last, k: int) -> CountPair:
    """count_layered at ell = 2: Y by the transposed DP of the last layer
    applied to the first layer's chunks, X by one matched-only DP.

    Y = sum_F <table F of the first layer, transposed, table F of the last>,
    field by field, the i = 0 term (X) and the i = k term (1) included.
    Both layers share _layout(k), so chunk c of each holds the same fixed
    sets, and tables of different sizes in one chunk never share a nonzero
    field: Y = sum_c <A_c, B_c>, A the first layer's chunks and B = L_(k-1)
    ... L_0 e the last layer's, L_t the linear step of row t in
    _layer_tables and e the one chunk before row 0, 1 in field 0.  By
    transposition, Y = <L_0^T ... L_(k-1)^T A, e>: field 0 of the one chunk
    left after the rows are walked back from k - 1 to 0 on A
    (_transposed_row).  No dot product is taken, and no chunk is read as a
    vector.

    Each stage runs at its own exact byte width (_walk_widths): the first
    layer at that of k!, which bounds its fields, and the chunks before row
    t at that of row t's bound, which grows as the walk goes back, so a row
    that needs more bytes widens its chunks once (_widen).  Only two fields
    are ever read, both by shifts, so no width needs a struct code.  Each
    chunk is dropped once read, so the walk holds little more than the
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
    return CountPair(derangements=derangements, permutations=permutations)


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
    """(readers, sizes): how the ell >= 3 route reads the chunks of
    _layer_tables as vectors, made once per process per k, and only there:
    the ell = 2 route reads no vector.

    readers[c] reads, from the fields of chunk c (unpack), the vectors of
    its fixed sets F with 0 < |F| < k, in the order of _layout's sets: row
    F of T^(i), i = |F|, is the fields full ^ x of the chunk for the
    i-subsets x in the order sets lists them, since the chunk's other
    tables are 0 there.  That is the order of the size-i vectors, so the
    entries of every vector line up with the vectors of its size.  One
    getter per size i, shared by every chunk; sizes[v] is |F| of vector v.
    The getters hold about one key per field of a chunk, 2^12 at k = 12.
    """
    sets = _layout(k)[1]
    full = (1 << k) - 1
    keys: list[list[int]] = [[] for _ in range(k + 1)]
    for f in chain.from_iterable(sets):
        keys[f.bit_count()].append(full ^ f)
    getters = {i: itemgetter(*keys[i]) for i in range(1, k)}
    inner = [[f.bit_count() for f in fs if 0 < f.bit_count() < k] for fs in sets]
    readers = tuple(tuple(map(getters.get, sizes)) for sizes in inner)
    return readers, tuple(chain.from_iterable(inner))


def _layer_vectors(rows, k: int, nbytes: int):
    """(m, vectors) of one layer: m its perfect-matching count, field full
    of table 0, and vectors, lazily, row F of T^(|F|) as a tuple for each
    fixed set F with 0 < |F| < k, in the order of _readers' sizes (vector
    order).  Each chunk of _layer_tables is unpacked once (unpack), read
    by _readers' readers and dropped."""
    width = 8 * nbytes
    chunks = _layer_tables(rows, k, nbytes)
    matchings = (chunks[0] >> width * ((1 << k) - 1)) & ((1 << width) - 1)
    chunks.reverse()  # popped, so chunk 0 first
    fields = (unpack(chunks.pop(), nbytes, 1 << k) for _ in range(len(chunks)))
    return matchings, (get(f) for f, gets in zip(fields, _readers(k)[0]) for get in gets)


def _column_products(packed: dict[int, list[int]], cols, sizes) -> dict[int, list[int]]:
    """The packed columns of P T^(i) for each size i, given packed[i], those
    of P^(i) in vector order, and the columns of T in vector order, sizes
    giving the size of each: column y of P T is sum_z T[z][y] * column z
    of P, entry z of a column of T lining up with column z of P^(i)."""
    product: dict[int, list[int]] = {i: [] for i in packed}
    for i, col in zip(sizes, cols):
        product[i].append(sum(map(mul, col, packed[i])))
    return product


def count(g: Digraph | SampledSubgraph) -> tuple[str, CountPair]:
    """Count with the counter the graph calls for; return its name and the
    counts: "layered" for a blow-up subgraph, "permanent" for a digraph."""
    if isinstance(g, SampledSubgraph):
        return "layered", count_layered(g)
    return "permanent", count_permanent(g)
