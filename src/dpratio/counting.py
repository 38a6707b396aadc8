"""Exact permutation and derangement counting.

Two counters:

* count_permanent  -- permanents of A and of A+I, any digraph with n <= 30,
  each the product of its matrix's connected components' permanents (row
  i joined to column j by a nonzero entry; 0 if a component is not
  square), so A of a blow-up subgraph takes Glynns of at most k columns,
  not one of k*ell.  Each component larger than 1 x 1 takes a Glynn
  pass, which puts the sign patterns of up to 8 columns side by side in
  one packed int, a Gray-code walk over the rest; each step skips the
  patterns with a zero row sum (most of them, for a sparse digraph),
  found with one table lookup per row in tables built once per pass,
  which map each value a row's field held before the walk to the
  patterns that held it (for n <= 9 the walk has one step);
* count_layered    -- transfer-matrix over per-part fixed sets, the
  workhorse for blow-up subgraphs (cost exponential in k, not in k*ell);
  one perfect-matching DP per layer gives its matrix entries for every
  fixed-set size i at once.  The DP keeps one packed table per set F of
  fixed rows: the count of used columns U sits in field U, of W = 8, 16,
  32 or 64 bits (whole bytes past 64), the smallest with k! < 2^W, and
  each row moves every field of a table at once with big-int shifts and
  masks.  No field carries, since a count is at most |U|! <= k! and every
  addend is nonnegative.
  The k column masks span the 2^k fields of one table; they depend only
  on k and W, so they are made once per process (functools.cache) and kept
  for every later layer and call (192 KB at k = 12, and 384 KB for the
  8-byte fields of the ell = 2 route).  Tables of fixed sets of
  different sizes never share a nonzero field, so one int, a chunk of 2^k
  fields, adds several of them: a per-k layout, made once, gives row by
  row each chunk's matched form the fixed form of at most one partner
  chunk, each fixed form left over starting a chunk of its own, and a
  layer ends in C(k, floor(k/2)) chunks instead of 2^k, Sperner's bound on
  an antichain of subsets (924 of 16 KB at k = 12).  The first layer runs
  on its transposed rows, so it gives the columns of its matrices.
  At ell = 2 the trace is the dot of the first layer's chunks with the
  last layer's, and by Tellegen's transposition principle (Bostan, Lecerf
  and Schost, ISSAC 2003) it equals the last layer's DP run backward, each
  row's step transposed, on the first layer's chunks: no chunk is read as
  vectors and no dot is taken.  Its fields are sized for the full blow-up's
  Y, sum_i (C(k, i) (k-i)!)^2, which bounds every one of them (a sum of
  first-layer fields over the ways to walk the remaining rows), so none
  carries; that covers the i = 0 and i = k terms too.
  At ell >= 3 each chunk is unpacked once into its fields and read by one
  `operator.itemgetter` call per fixed set, by the size of the set, in the
  layout's order of the sets; the middle layers also give columns, the
  last gives rows, and the trace closes with one dot product per fixed
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
import struct
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
    which every block has one only moves `packed`.  A walk of one step (h =
    n - 1, at n <= 9) has no walked column: walked is all 0, and each row
    looks up 128 alone."""
    blocks = 1 << h
    size = n << h
    packed = _sign_blocks(cols, n, h)
    fields = packed.to_bytes(size, "little")
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


#: bytes.translate table of _permanent: a zero byte to "0", any other to "1"
_NONZERO = b"0" + b"1" * 255


def _permanent(cols: list[int], n: int) -> int:
    """perm(M) for the n x n matrix M of _glynn, as the product of the
    permanents of the connected components of M's bipartite graph, row i
    joined to column j when M[i][j] != 0 (H. Minc, Permanents, 1978): every
    permutation's entries lie in components that each take as many columns
    as rows, so perm(M) is 0 if some component is not square.

    Each column's rows are a bitmask, and a column merges every component
    whose rows it meets.  One component is M itself, passed to _glynn as
    it is; otherwise a 1 x 1 component is its one entry, and each larger
    one's columns are repacked over its own rows, one byte per row, for a
    _glynn of its own size.  A row keeps every nonzero entry in its
    component, so its sum stays within the component's size, as _glynn's
    byte fields need."""
    comps: list[tuple[int, int]] = []  # (row mask, column mask), disjoint
    for j, col in enumerate(cols):
        rows = int(col.to_bytes(n, "big").translate(_NONZERO), 2)
        columns = 1 << j
        apart = []
        for comp in comps:
            if comp[0] & rows:
                rows |= comp[0]
                columns |= comp[1]
            else:
                apart.append(comp)
        apart.append((rows, columns))
        comps = apart
    if any(rows.bit_count() != columns.bit_count() for rows, columns in comps):
        return 0
    if len(comps) == 1:
        return _glynn(cols, n)
    perm = 1
    for rows, columns in comps:
        if rows & (rows - 1) == 0:  # 1 x 1: the column's one nonzero byte
            perm *= cols[columns.bit_length() - 1] >> 8 * (rows.bit_length() - 1)
            continue
        keep = [(rows >> i) & 1 for i in range(n)]
        sub = [
            int.from_bytes(bytes(compress(col.to_bytes(n, "little"), keep)), "little")
            for col in compress(cols, [(columns >> j) & 1 for j in range(n)])
        ]
        perm *= _glynn(sub, len(sub))
    return perm


def count_permanent(g: Digraph) -> CountPair:
    """derangements = perm(A), permutations = perm(A + I), each a product
    over the connected components of the matrix's bipartite graph
    (_permanent), one Glynn pass (_glynn) per component larger than 1 x 1.
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
        derangements=_permanent(cols, n),
        permutations=_permanent([c + (1 << 8 * j) for j, c in enumerate(cols)], n),
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
    them (_layer_vectors, _layout): every layer but the last runs on its
    transposed rows, so its vectors are the columns of T_c, and the last
    one's are the rows of T_ell, in the same order, with entries in the
    order of the vectors of their size.  With P = T_1 ... T_(ell-1),

        trace(P T_ell) = sum_F column F of P . row F of T_ell.

    Each column of P is one Kronecker-packed int (_pack), kept in vector
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
    first, *middle, last = g.layers
    if not middle:
        return _count_two_layers(first, last, k, nbytes)
    ell = len(g.layers)
    derangements, cols = _layer_vectors(_transpose(first, k), k, nbytes)
    sizes = _layout(k)[3]  # |F| of each vector, in vector order
    widths = {
        i: _field_width(math.comb(k, i) ** (ell - 2) * math.factorial(k - i) ** (ell - 1))
        for i in range(1, k)
    }
    packed = {i: [] for i in widths}
    for i, col in zip(sizes, cols):
        packed[i].append(_pack(col, widths[i]))
    for rows in middle:
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


def _count_two_layers(first, last, k: int, nbytes: int) -> CountPair:
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
    left after the rows are walked back from k - 1 to 0 on A.  The step of
    row t moves field U to field U | 1 << j for each column j of the row
    that U lacks, and adds the fixed form of each chunk d to one chunk
    after the row: chunk c with partners[c] = d, or d's slot among the
    rest.  Its transpose gives chunk d before the row as sum_j ((after_d
    >> W * 2^j) & mask_j), over the row's columns j, plus that chunk.  No
    dot product is taken, and no chunk is read as a vector.

    No field carries at width W = 8 * _field_width(Y of the full blow-up),
    sum_i (C(k, i) (k - i)!)^2.  A field of chunk d before row t, at |U| =
    u, sums a field of A, at most |U'|! for U' its used columns, over the
    ways to walk rows t..k-1, each fixed or matched into a column outside
    U: with j rows matched, at most C(k - t, j) (k - u)!/(k - u - j)!
    walks, each ending at |U'| = u + j.  That bound is at most the full
    blow-up's Y for every t and u at k <= 14, with equality only at t = u
    = 0 (see the tests).  Every addend is nonnegative, so no field passes
    its bound.  Each chunk is dropped once read, so the walk holds little
    more than the first layer's chunks.

    X is the product of the layers' perfect-matching counts: the top field
    of the first layer's chunk 0, and field full of one chunk walked
    through the last layer's rows, each matched only, at width nbytes."""
    wide = _field_width(sum((math.comb(k, i) * math.factorial(k - i)) ** 2 for i in range(k + 1)))
    width = 8 * wide
    after = _layer_tables(_transpose(first, k), k, wide)
    derangements = after[0] >> width * ((1 << k) - 1)  # the top field
    masks = _column_masks(k, wide)
    for row, (partners, rest) in zip(reversed(last), reversed(_layout(k)[0])):
        cols = [(masks[j], width << j) for j in range(k) if (row >> j) & 1]
        before = [0] * len(partners)
        # after chunk c holds the matched form of chunk c, if c < len(partners),
        # and the fixed form of chunk d, if d is not None
        for c, d in enumerate(partners + rest):
            y, after[c] = after[c], None
            if d is not None:
                before[d] += y
            if c < len(before):
                for mask, up in cols:
                    before[c] += (y >> up) & mask
        after = before
    permutations = after[0] & ((1 << width) - 1)
    width = 8 * nbytes
    masks = _column_masks(k, nbytes)
    matched = 1
    for row in last:
        matched = sum((matched & masks[j]) << (width << j) for j in range(k) if (row >> j) & 1)
    derangements *= matched >> width * ((1 << k) - 1)
    return CountPair(derangements=derangements, permutations=permutations)


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


#: struct format code of each field width up to 8 bytes, at its standard
#: size (_struct, for _pack and _unpack)
_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}

@functools.cache
def _column_masks(k: int, nbytes: int) -> tuple[int, ...]:
    """The k column masks of _layer_tables, made once per process per k
    and width: mask j has all ones in the nbytes-wide fields of a chunk's
    2^k whose index lacks bit j.  At k = 12 they take 12 * 4 B * 4096,
    about 192 KB, and twice that at the 8-byte fields of the ell = 2
    route."""
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
    """(steps, sets, readers, sizes): how the chunks of _layer_tables add
    up and are read, made once per process per k.

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

    readers[c] reads, from the fields of chunk c (_unpack), the
    vectors of its fixed sets F with 0 < |F| < k, in the order of sets:
    row F of T^(i), i = |F|, is the fields full ^ x of the chunk for the
    i-subsets x in the order sets lists them, since the chunk's other
    tables are 0 there.  That is the order of the size-i vectors, so the
    entries of every vector line up with the vectors of its size.  One
    getter per size i, shared by every chunk; sizes[v] is |F| of vector v.
    The getters hold about one key per field of a chunk, 2^12 at k = 12.
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
    full = (1 << k) - 1
    keys: list[list[int]] = [[] for _ in range(k + 1)]
    for f in chain.from_iterable(sets):
        keys[f.bit_count()].append(full ^ f)
    getters = {i: itemgetter(*keys[i]) for i in range(1, k)}
    inner = [[f.bit_count() for f in fs if 0 < f.bit_count() < k] for fs in sets]
    readers = tuple(tuple(map(getters.get, sizes)) for sizes in inner)
    return tuple(steps), tuple(sets), readers, tuple(chain.from_iterable(inner))


def _layer_vectors(rows, k: int, nbytes: int):
    """(m, vectors) of one layer: m its perfect-matching count, field full
    of table 0, and vectors, lazily, row F of T^(|F|) as a tuple for each
    fixed set F with 0 < |F| < k, in the order of _layout's sizes (vector
    order).  Each chunk of _layer_tables is unpacked once (_unpack), read
    by _layout's readers and dropped."""
    width = 8 * nbytes
    chunks = _layer_tables(rows, k, nbytes)
    matchings = (chunks[0] >> width * ((1 << k) - 1)) & ((1 << width) - 1)
    chunks.reverse()  # popped, so chunk 0 first
    fields = (_unpack(chunks.pop(), nbytes, 1 << k) for _ in range(len(chunks)))
    return matchings, (get(f) for f, gets in zip(fields, _layout(k)[2]) for get in gets)


def _column_products(packed: dict[int, list[int]], cols, sizes) -> dict[int, list[int]]:
    """The packed columns of P T^(i) for each size i, given packed[i], those
    of P^(i) in vector order, and the columns of T in vector order, sizes
    giving the size of each: column y of P T is sum_z T[z][y] * column z
    of P, entry z of a column of T lining up with column z of P^(i)."""
    product: dict[int, list[int]] = {i: [] for i in packed}
    for i, col in zip(sizes, cols):
        product[i].append(sum(map(mul, col, packed[i])))
    return product


@functools.cache
def _struct(nbytes: int, n: int) -> struct.Struct:
    """n little-endian fields of nbytes in _CODES, compiled once per process
    per (nbytes, n): _unpack reads every ell >= 3 layer chunk, and a format
    string built and looked up per call left those counts 2-4% slower."""
    return struct.Struct(f"<{n}{_CODES[nbytes]}")


def _pack(col, nbytes: int) -> int:
    """col as one int, entry x in the nbytes-wide field at byte x * nbytes."""
    if nbytes in _CODES:
        raw = _struct(nbytes, len(col)).pack(*col)
    else:
        raw = b"".join(map(int.to_bytes, col, repeat(nbytes), repeat("little")))
    return int.from_bytes(raw, "little")


def _unpack(x: int, nbytes: int, n: int) -> tuple[int, ...]:
    """The n fields of x, low first, nbytes each: the inverse of _pack."""
    raw = x.to_bytes(n * nbytes, "little")
    if nbytes in _CODES:
        return _struct(nbytes, n).unpack(raw)
    return tuple(int.from_bytes(raw[j : j + nbytes], "little") for j in range(0, len(raw), nbytes))


def count(g: Digraph | SampledSubgraph) -> tuple[str, CountPair]:
    """Count with the counter the graph calls for; return its name and the
    counts: "layered" for a blow-up subgraph, "permanent" for a digraph."""
    if isinstance(g, SampledSubgraph):
        return "layered", count_layered(g)
    return "permanent", count_permanent(g)
