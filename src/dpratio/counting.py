"""Exact permutation and derangement counting: the counting API.

A permutation in a digraph is a bijection where each vertex is fixed or
maps along an out-edge; a derangement fixes nothing.  Counting permutations
equals the permanent of adjacency-plus-identity, derangements the permanent
of the adjacency matrix.

Two counters, each behind the guard of its size limit:

* count_permanent -- perm(A) and perm(A + I) of any digraph with n <= 30,
  by the Glynn kernel of `dpratio.permanent`;
* count_layered   -- the transfer-matrix counter of `dpratio.layered`, the
  workhorse for blow-up subgraphs with k <= 12.

Only this module imports the two kernels (`tests/test_hygiene.py`
enforces this), so every library route to them passes its guard.
`count` takes the counter from the graph: layered for a `SampledSubgraph`
(a blow-up subgraph, the full blow-up included), the permanent for a
general `Digraph`.  The permanent is also an oracle for the layered
counter, beside the brute force of `dpratio.oracles` (see
`dpratio.verify`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import layered, permanent
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
    """Exact counts of a blow-up subgraph by the transfer-matrix counter of
    `dpratio.layered`, once check_layered_k admits its part size."""
    check_layered_k(g.k)
    return CountPair(*layered.counts(g.layers, g.k))


def count(g: Digraph | SampledSubgraph) -> tuple[str, CountPair]:
    """Count with the counter the graph calls for; return its name and the
    counts: "layered" for a blow-up subgraph, "permanent" for a digraph."""
    if isinstance(g, SampledSubgraph):
        return "layered", count_layered(g)
    return "permanent", count_permanent(g)
