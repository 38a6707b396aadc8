"""Permanents of small square matrices, packed one byte per row in each
column's int, by Glynn's formula.

`permanent` is the product of the permanents of its matrix's connected
components (row i joined to column j by a nonzero entry; 0 if a component
is not square).  Each component larger than 1 x 1 takes a Glynn pass, which
puts the sign patterns of up to 8 columns side by side in one packed int, a
Gray-code walk over the rest; each step skips the patterns with a zero row
sum (most of them, for a sparse digraph), found with one table lookup per
row in tables built once per pass, which map each value a row's field held
before the walk to the patterns that held it (for n <= 9 the walk has one
step).  `dpratio.counting.count_permanent` passes it A and A + I of a
digraph.
"""

from __future__ import annotations

import functools
import math
import struct
from itertools import compress, repeat
from operator import or_

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


#: bytes.translate table of permanent: a zero byte to "0", any other to "1"
_NONZERO = b"0" + b"1" * 255


def permanent(cols: list[int], n: int) -> int:
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
