"""Exact permutation and derangement counting.

Three counters with nested domains:

* count_bruteforce -- checks all n! bijections, n <= 10 (ground truth);
* count_permanent  -- Ryser permanents of A and A+I, n <= 30;
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

import itertools
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
    """Count by checking every bijection directly against the definition."""
    if g.n > BRUTEFORCE_MAX_N:
        raise ValueError(f"brute force limited to n <= {BRUTEFORCE_MAX_N}, got {g.n}")
    edges = g.edges
    der = 0
    per = 0
    for f in itertools.permutations(range(g.n)):
        fixes = 0
        ok = True
        for v in range(g.n):
            if f[v] == v:
                fixes += 1
            elif (v, f[v]) not in edges:
                ok = False
                break
        if ok:
            per += 1
            if fixes == 0:
                der += 1
    return CountPair(derangements=der, permutations=per)


def permanent(matrix) -> int:
    """Permanent of a square 0/1 matrix via Ryser's inclusion-exclusion.

    O(2^n * n); exact big-integer result.
    """
    n = len(matrix)
    if n > PERMANENT_MAX_N:
        raise ValueError(f"permanent limited to n <= {PERMANENT_MAX_N}, got {n}")
    rows = []
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
        mask = 0
        for j, a in enumerate(row):
            if a not in (0, 1):
                raise ValueError("matrix entries must be 0 or 1")
            if a:
                mask |= 1 << j
        rows.append(mask)
    return _permanent_bitrows(rows, n)


def _permanent_bitrows(rows: list[int], n: int) -> int:
    """Permanent of the n x n 0/1 matrix whose row i has column bits rows[i].

    Ryser in the form
    perm = sum over S subset of columns of (-1)^(n-|S|) prod_i |row_i & S|.
    """
    if n == 0:
        return 1
    full = (1 << n) - 1
    total = 0
    s = full
    # enumerate all non-empty column subsets
    while s:
        prod = 1
        for r in rows:
            prod *= (r & s).bit_count()
            if not prod:
                break
        if prod:
            if (n - s.bit_count()) & 1:
                total -= prod
            else:
                total += prod
        s = (s - 1) & full
    return total


def count_permanent(g: Digraph) -> CountPair:
    """derangements = perm(A), permutations = perm(A + I)."""
    n = g.n
    if n > PERMANENT_MAX_N:
        raise ValueError(f"permanent counting limited to n <= {PERMANENT_MAX_N}")
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
    der = _permanent_bitrows(adj, n)
    per = _permanent_bitrows([adj[i] | (1 << i) for i in range(n)], n)
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
