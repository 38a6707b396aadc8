"""Exact permutation and derangement counting.

Three counters with nested domains:

* count_bruteforce -- checks all n! bijections, n <= 10 (ground truth);
* count_permanent  -- Ryser permanents of A and A+I, n <= 30;
* count_layered    -- transfer-matrix over per-part fixed sets, the
  workhorse for blow-up subgraphs (cost exponential in k, not in k*ell);
  each layer's matrix entries come from one perfect-matching DP over its
  rows per fixed-set size, with about C(k+t, t) states at row t.

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

from .digraph import BlowupDigraph, Digraph, SampledSubgraph

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
    if n == 0:
        return 1
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
    F'.  All C(k,i)^2 entries of T_c^(i) come from one matching DP over the
    rows of layer c (see _layer_minors), about C(k+t, t) states at row t:
    O(k * C(2k, k)) dict updates per layer and i, where one Ryser
    permanent per entry would cost C(k,i)^2 * 2^(k-i) * (k-i).  The i = 0
    term is the derangement count, a product of per-layer perfect-matching
    counts.
    """
    base = g.base
    k, ell = base.k, base.ell
    if k > LAYERED_MAX_K:
        raise ValueError(f"layered counting limited to k <= {LAYERED_MAX_K}")
    full = (1 << k) - 1
    subsets_by_size: list[list[int]] = [[] for _ in range(k + 1)]
    for mask in range(1 << k):
        subsets_by_size[mask.bit_count()].append(mask)

    layer_edge_counts = [sum(r.bit_count() for r in rows) for rows in g.layers]

    permutations = 0
    derangements = 0
    for i in range(k + 1):
        need = k - i
        if any(cnt < need for cnt in layer_edge_counts):
            continue
        fixed_sets = subsets_by_size[i]
        row_keys = [f << k for f in fixed_sets]
        col_keys = [full ^ f for f in fixed_sets]
        mats = []
        for rows in g.layers:
            minors = _layer_minors(rows, k, i)
            mats.append([[minors.get(r | c, 0) for c in col_keys] for r in row_keys])
        term = _trace_product(mats)
        permutations += term
        if i == 0:
            derangements = term
    return CountPair(derangements=derangements, permutations=permutations)


def _layer_minors(rows, k: int, i: int) -> dict[int, int]:
    """Perfect-matching counts of every minor of one layer that drops i rows
    and i columns, keyed by F << k | U.

    Walks the k rows in order; each row is either fixed (its bit joins F)
    or matched to a free column it has an edge to (that bit joins U).  The
    state F << k | U counts the partial assignments reaching it; states
    with |F| > i or |U| > k - i are never made.  After the last row every
    state has |F| = i and |U| = k - i, and the entry for rows F and columns
    F' dropped is the count of state F << k | (full & ~F'), absent if 0.
    """
    need = k - i
    # by_fixed[f] holds the states with |F| = f, so |U| = t - f at row t
    by_fixed: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(i)]
    for t, row in enumerate(rows):
        fix_bit = 1 << (k + t)
        col_bits = [1 << j for j in range(k) if (row >> j) & 1]
        nxt: list[dict[int, int]] = [{} for _ in range(i + 1)]
        for f in range(min(t, i) + 1):
            cur = by_fixed[f]
            if not cur:
                continue
            if f < i:
                # fixing row t gives distinct keys no match move can reach
                nxt[f + 1].update({key | fix_bit: cnt for key, cnt in cur.items()})
            if t - f < need:
                out = nxt[f]
                get = out.get
                for key, cnt in cur.items():
                    for b in col_bits:
                        if not key & b:
                            nk = key | b
                            out[nk] = get(nk, 0) + cnt
        by_fixed = nxt
    return by_fixed[i]


def _trace_product(mats) -> int:
    """trace(M_1 * ... * M_t) for square big-int matrices."""
    if len(mats) == 2:
        a, b = mats
        n = len(a)
        return sum(a[x][y] * b[y][x] for x in range(n) for y in range(n))
    m = mats[0]
    n = len(m)
    for nxt in mats[1:]:
        m = [
            [sum(m[x][z] * nxt[z][y] for z in range(n)) for y in range(n)]
            for x in range(n)
        ]
    return sum(m[x][x] for x in range(n))


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


def closed_form_ratio(k: int, ell: int) -> Fraction:
    """Exact derangement-to-permutation ratio of the full blow-up."""
    c = closed_form_counts(k, ell)
    return Fraction(c.derangements, c.permutations)


def count(g, method: str = "auto") -> CountPair:
    """Dispatch to a counter by name; 'auto' picks the cheapest valid one."""
    if method == "layered" or (method == "auto" and isinstance(g, SampledSubgraph)):
        if isinstance(g, BlowupDigraph):
            g = g.full_subgraph()
        if not isinstance(g, SampledSubgraph):
            raise ValueError("layered counting needs a blow-up subgraph")
        return count_layered(g)
    from .digraph import to_general

    plain = to_general(g) if not isinstance(g, Digraph) else g
    if method == "brute" or (method == "auto" and plain.n <= BRUTEFORCE_MAX_N):
        return count_bruteforce(plain)
    if method in ("permanent", "auto"):
        return count_permanent(plain)
    raise ValueError(f"unknown counting method {method!r}")
