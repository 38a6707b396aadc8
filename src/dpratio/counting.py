"""Exact permutation and derangement counting.

Three counters with nested domains:

* count_bruteforce -- builds every permutation by backtracking, n <= 10
  (ground truth; work = the digraph's partial permutations, not n!);
* count_permanent  -- Ryser permanents of A and A+I from one Gray-code
  pass, n <= 30;
* count_layered    -- transfer-matrix over per-part fixed sets, the
  workhorse for blow-up subgraphs (cost exponential in k, not in k*ell);
  one perfect-matching DP per layer gives its matrix entries for every
  fixed-set size i at once: C(k+t, t) states at row t, C(2k+1, k) state
  visits per layer, no per-i pruning.

`count` takes the counter from the graph: layered for a blow-up subgraph,
Ryser for a general digraph.  Brute force and Ryser stay as oracles for
the layered counter (see `dpratio.verify`).

A permutation in a digraph is a bijection where each vertex is fixed or
maps along an out-edge; a derangement fixes nothing.  Counting permutations
equals the permanent of adjacency-plus-identity, derangements the permanent
of the adjacency matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .digraph import Digraph, SampledSubgraph

BRUTEFORCE_MAX_N = 10
PERMANENT_MAX_N = 30
LAYERED_MAX_K = 12


@dataclass(frozen=True)
class CountPair:
    """Exact derangement and permutation counts for one digraph."""

    derangements: int
    permutations: int

    def ratio(self) -> Fraction:
        return Fraction(self.derangements, self.permutations)


def count_bruteforce(g: Digraph) -> CountPair:
    """Count by building every permutation from the definition.

    Backtracking over vertices 0..n-1 in order: each vertex goes to itself
    or to an out-neighbour whose image slot is still free, so the work is
    the number of partial permutations of the digraph, at most about e * n!
    (the complete digraph).  Derangements are the complete assignments that
    never took the fixed-point branch.
    """
    n = g.n
    if n > BRUTEFORCE_MAX_N:
        raise ValueError(f"brute force limited to n <= {BRUTEFORCE_MAX_N}, got {n}")
    out_bits: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        out_bits[u].append(1 << v)

    def extend(v: int, taken: int) -> tuple[int, int]:
        # (derangements, permutations) of vertices v..n-1 onto the free slots
        if v == n:
            return 1, 1
        der = per = 0
        if not taken >> v & 1:
            per = extend(v + 1, taken | 1 << v)[1]
        for b in out_bits[v]:
            if not taken & b:
                d, p = extend(v + 1, taken | b)
                der += d
                per += p
        return der, per

    der, per = extend(0, 0)
    return CountPair(derangements=der, permutations=per)


def permanent(matrix) -> int:
    """Permanent of a square 0/1 matrix by Ryser's formula (see _ryser_pair);
    exact big-integer result."""
    n = len(matrix)
    if n > PERMANENT_MAX_N:
        raise ValueError(f"permanent limited to n <= {PERMANENT_MAX_N}, got {n}")
    cols = [0] * n
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise ValueError("matrix must be square")
        for j, a in enumerate(row):
            if a not in (0, 1):
                raise ValueError("matrix entries must be 0 or 1")
            if a:
                cols[j] += 1 << 8 * i
    return _ryser_pair(cols, n)[0]


def _ryser_pair(cols: list[int], n: int) -> tuple[int, int]:
    """(perm(M), perm(M + I)) for the n x n 0/1 matrix M whose column j is
    cols[j], packed one byte per row (row i in bits 8*i .. 8*i + 7).

    Ryser: perm = (-1)^n sum over column subsets S of (-1)^|S| prod_i
    (row sum i over S).  S walks the Gray code, so one column joins or leaves
    at each step, |S| changes parity each step, and moving every row sum at
    once is one add or subtract of the packed column.  Row sums never exceed
    n + 1 <= PERMANENT_MAX_N + 1 = 31 < 256, so no byte carries into the
    next.  M + I shares the pass: its column j is cols[j] + (1 << 8*j).
    O(2^n * n) for both permanents together.
    """
    cols_i = [c + (1 << 8 * j) for j, c in enumerate(cols)]
    sums = sums_i = subset = 0
    acc = acc_i = int(n == 0)  # S empty: the product of n zero row sums
    for step in range(1, 1 << n):
        bit = step & -step
        j = bit.bit_length() - 1
        subset ^= bit
        if subset & bit:
            sums += cols[j]
            sums_i += cols_i[j]
        else:
            sums -= cols[j]
            sums_i -= cols_i[j]
        p = math.prod(sums.to_bytes(n, "little"))
        p_i = math.prod(sums_i.to_bytes(n, "little"))
        if step & 1:  # |S| is odd
            acc -= p
            acc_i -= p_i
        else:
            acc += p
            acc_i += p_i
    return (-acc, -acc_i) if n & 1 else (acc, acc_i)


def count_permanent(g: Digraph) -> CountPair:
    """derangements = perm(A), permutations = perm(A + I), both from one
    Ryser pass."""
    n = g.n
    if n > PERMANENT_MAX_N:
        raise ValueError(f"permanent counting limited to n <= {PERMANENT_MAX_N}")
    cols = [0] * n
    for u, v in g.edges:
        cols[v] += 1 << 8 * u
    der, per = _ryser_pair(cols, n)
    return CountPair(derangements=der, permutations=per)


def count_layered(g: SampledSubgraph) -> CountPair:
    """Exact counts using the layered structure of blow-up subgraphs.

    Every permutation fixes the same number i of vertices in each part and
    matches the non-fixed vertices of part c perfectly into the non-fixed
    vertices of part c+1.  Summing over i:

        permutations = sum_i trace(T_1^(i) ... T_ell^(i))

    where T_c^(i) is indexed by pairs of i-subsets (F of part c, F' of part
    c+1) with entry = number of perfect matchings of layer c avoiding F and
    F'.  One matching DP over the rows of layer c (see _layer_minors) gives
    the entries of T_c^(i) for every i at once: C(2k+1, k) state visits per
    layer, with no per-i pruning, where one Ryser permanent per entry would
    cost C(k,i)^2 * 2^(k-i) * (k-i).  Each size's states become its matrix
    and are dropped; a size with no state in some layer adds nothing.  The
    trace then takes ell - 2 dense matrix products.  The i = 0 term is the
    derangement count, a product of per-layer perfect-matching counts.
    """
    base = g.base
    k = base.k
    if k > LAYERED_MAX_K:
        raise ValueError(f"layered counting limited to k <= {LAYERED_MAX_K}")
    full = (1 << k) - 1
    subsets_by_size: list[list[int]] = [[] for _ in range(k + 1)]
    for mask in range(1 << k):
        subsets_by_size[mask.bit_count()].append(mask)

    # mats[i] holds T_c^(i) for the layers so far; None once a layer has none
    mats: list[list | None] = [[] for _ in range(k + 1)]
    for rows in g.layers:
        minors = _layer_minors(rows, k)
        for i, fixed_sets in enumerate(subsets_by_size):
            states, minors[i] = minors[i], {}
            if mats[i] is None:
                continue
            if not states:
                mats[i] = None
                continue
            get = states.get
            col_keys = [full ^ f for f in fixed_sets]
            mats[i].append([[get(f << k | c, 0) for c in col_keys] for f in fixed_sets])
    terms = [0 if m is None else _trace_product(m) for m in mats]
    return CountPair(derangements=terms[0], permutations=sum(terms))


def _layer_minors(rows, k: int) -> list[dict[int, int]]:
    """Perfect-matching counts of every minor of one layer, keyed by F << k | U
    and listed by i = |F|: the minor that drops rows F and columns F' is the
    count of state F << k | (full & ~F') in entry i, absent if 0.

    Walks the k rows in order; each row is either fixed (its bit joins F)
    or matched to a free column it has an edge to (that bit joins U).  The
    state F << k | U counts the partial assignments reaching it.  One pass
    serves every i, with no per-i pruning: row t has C(k+t, t) states, so
    C(2k+1, k) over the layer, and after the last row every state has
    |F| + |U| = k.
    """
    # by_fixed[f] holds the states with |F| = f, so |U| = t - f at row t
    by_fixed: list[dict[int, int]] = [{0: 1}]
    for t, row in enumerate(rows):
        fix_bit = 1 << (k + t)
        col_bits = [1 << j for j in range(k) if (row >> j) & 1]
        nxt: list[dict[int, int]] = [{} for _ in range(t + 2)]
        for f in range(t + 1):
            cur, by_fixed[f] = by_fixed[f], {}  # freed once its moves are made
            if not cur:
                continue
            # fixing row t gives distinct keys no match move can reach
            nxt[f + 1].update({key | fix_bit: cnt for key, cnt in cur.items()})
            out = nxt[f]
            get = out.get
            for key, cnt in cur.items():
                for b in col_bits:
                    if not key & b:
                        nk = key | b
                        out[nk] = get(nk, 0) + cnt
        by_fixed = nxt
    return by_fixed


def _trace_product(mats) -> int:
    """trace(M_1 * ... * M_t) for t >= 2 square big-int matrices: dense
    products up to M_(t-1), then the diagonal sum of P[x][y] * M_t[y][x]."""
    *head, last = mats
    m = head[0]
    n = len(m)
    for nxt in head[1:]:
        m = [
            [sum(m[x][z] * nxt[z][y] for z in range(n)) for y in range(n)]
            for x in range(n)
        ]
    return sum(m[x][y] * last[y][x] for x in range(n) for y in range(n))


def closed_form_counts(k: int, ell: int) -> CountPair:
    """Exact counts for the full blow-up: (k!)^ell derangements and
    sum_i (C(k,i) (k-i)!)^ell permutations."""
    if k < 1 or ell < 2:
        raise ValueError("need k >= 1 and ell >= 2")
    der = math.factorial(k) ** ell
    per = sum(
        (math.comb(k, i) * math.factorial(k - i)) ** ell for i in range(k + 1)
    )
    return CountPair(derangements=der, permutations=per)


def count(g: Digraph | SampledSubgraph) -> tuple[str, CountPair]:
    """Count with the counter the graph calls for; return its name and the
    counts: "layered" for a blow-up subgraph, "permanent" for a digraph."""
    if isinstance(g, SampledSubgraph):
        return "layered", count_layered(g)
    return "permanent", count_permanent(g)
