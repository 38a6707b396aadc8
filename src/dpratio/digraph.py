"""Digraphs, the blow-up construction, and uniform m-edge subgraph sampling.

Vertex numbering convention (part of the external format): the i-th vertex
of part c (0-based) has index c*k + i.  Edges of the blow-up are indexed
c*k*k + i*k + j, meaning part-c vertex i -> part-(c+1 mod ell) vertex j.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, TextIO

SCHEMA_VERSION = 1

#: Cap on the number of subgraphs enumerate_subgraphs will stream.
ENUMERATION_CAP = 10**7


@dataclass(frozen=True)
class Digraph:
    """A simple digraph on vertices 0..n-1 with no self-loops."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        object.__setattr__(self, "edges", frozenset(self.edges))
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")

    @property
    def edge_count(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class BlowupDigraph:
    """Blow-up of a directed ell-cycle: each cycle vertex becomes a block of
    k vertices, each cycle edge a complete directed bipartite layer.

    k*ell vertices, k^2*ell edges.
    """

    k: int
    ell: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"part size k must be >= 1, got {self.k}")
        if self.ell < 2:
            raise ValueError(f"number of parts ell must be >= 2, got {self.ell}")

    @property
    def vertex_count(self) -> int:
        return self.k * self.ell

    @property
    def edge_count(self) -> int:
        return self.k * self.k * self.ell

    @property
    def parts(self) -> list[list[int]]:
        k = self.k
        return [list(range(c * k, (c + 1) * k)) for c in range(self.ell)]

    def vertex(self, c: int, i: int) -> int:
        """Global index of the i-th vertex of part c."""
        return c * self.k + i

    def full_subgraph(self) -> "SampledSubgraph":
        """The subgraph retaining every edge (all-ones layers)."""
        full_row = (1 << self.k) - 1
        layers = tuple(tuple(full_row for _ in range(self.k)) for _ in range(self.ell))
        return SampledSubgraph(base=self, layers=layers)


@dataclass(frozen=True)
class SampledSubgraph:
    """A subgraph of a blow-up, stored as per-layer bitmask rows.

    layers[c][i] has bit j set iff edge (part-c vertex i -> part-(c+1)
    vertex j) is retained.
    """

    base: BlowupDigraph
    layers: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k, ell = self.base.k, self.base.ell
        if len(self.layers) != ell or any(len(rows) != k for rows in self.layers):
            raise ValueError("layers must be ell tuples of k row masks")
        full = (1 << k) - 1
        if any(row & ~full for rows in self.layers for row in rows):
            raise ValueError("row mask has bits outside 0..k-1")

    @classmethod
    def from_edge_indices(cls, base: BlowupDigraph, indices) -> "SampledSubgraph":
        k = base.k
        rows = [[0] * k for _ in range(base.ell)]
        for e in indices:
            if not (0 <= e < base.edge_count):
                raise ValueError(f"edge index {e} out of range")
            c, rem = divmod(e, k * k)
            i, j = divmod(rem, k)
            rows[c][i] |= 1 << j
        layers = tuple(tuple(r) for r in rows)
        return cls(base=base, layers=layers)

    def edge_list(self) -> list[tuple[int, int]]:
        k, ell = self.base.k, self.base.ell
        out = []
        for c in range(ell):
            for i in range(k):
                row = self.layers[c][i]
                u = self.base.vertex(c, i)
                cn = (c + 1) % ell
                while row:
                    j = (row & -row).bit_length() - 1
                    out.append((u, self.base.vertex(cn, j)))
                    row &= row - 1
        return out


def build_blowup(k: int, ell: int) -> BlowupDigraph:
    """Construct the blow-up of a directed ell-cycle with parts of size k."""
    return BlowupDigraph(k=k, ell=ell)


def sample_subgraph(base: BlowupDigraph, m: int, seed: int) -> SampledSubgraph:
    """Uniformly random m-edge subgraph; deterministic in (base, m, seed).

    Partial Fisher-Yates over the edge index array: every m-subset of the
    k^2*ell edges is equally likely.
    """
    total = base.edge_count
    if not (0 <= m <= total):
        raise ValueError(f"m must be in [0, {total}], got {m}")
    rng = random.Random(seed)
    idx = list(range(total))
    for t in range(m):
        j = rng.randrange(t, total)
        idx[t], idx[j] = idx[j], idx[t]
    return SampledSubgraph.from_edge_indices(base, idx[:m])


def enumerate_subgraphs(base: BlowupDigraph, m: int) -> Iterator[SampledSubgraph]:
    """Yield every m-edge subgraph exactly once (brute-force oracle)."""
    import itertools

    total = base.edge_count
    if not (0 <= m <= total):
        raise ValueError(f"m must be in [0, {total}], got {m}")
    count = math.comb(total, m)
    if count > ENUMERATION_CAP:
        raise ValueError(f"C({total}, {m}) = {count} exceeds cap {ENUMERATION_CAP}")
    for combo in itertools.combinations(range(total), m):
        yield SampledSubgraph.from_edge_indices(base, combo)


def to_general(g: SampledSubgraph | BlowupDigraph) -> Digraph:
    """Flatten to an edge-list digraph under the documented vertex numbering."""
    if isinstance(g, BlowupDigraph):
        g = g.full_subgraph()
    return Digraph(n=g.base.vertex_count, edges=frozenset(g.edge_list()))


# ---------------------------------------------------------------------------
# External formats


def write_edgelist(g: Digraph, f: TextIO) -> None:
    """Text format: first line "n m", then m lines "u v" (0-based)."""
    edges = sorted(g.edges)
    f.write(f"{g.n} {len(edges)}\n")
    for u, v in edges:
        f.write(f"{u} {v}\n")


def read_edgelist(f: TextIO) -> Digraph:
    header = f.readline().split()
    if len(header) != 2:
        raise ValueError("expected header line 'n m'")
    n, m = int(header[0]), int(header[1])
    edges = []
    for _ in range(m):
        parts = f.readline().split()
        if len(parts) != 2:
            raise ValueError("expected edge line 'u v'")
        edges.append((int(parts[0]), int(parts[1])))
    return Digraph(n=n, edges=frozenset(edges))


def to_json_dict(g: Digraph | BlowupDigraph | SampledSubgraph) -> dict:
    parts = None
    if isinstance(g, (BlowupDigraph, SampledSubgraph)):
        base = g if isinstance(g, BlowupDigraph) else g.base
        parts = base.parts
        g = to_general(g)
    d = {
        "schema": SCHEMA_VERSION,
        "n": g.n,
        "edges": sorted([list(e) for e in g.edges]),
    }
    if parts is not None:
        d["parts"] = parts
    return d


def _check_graph_json(d) -> None:
    # type() rather than isinstance(): bool is an int subclass, and JSON true is no vertex
    if not isinstance(d, dict) or "n" not in d or "edges" not in d:
        raise ValueError("graph JSON must be an object with 'n' and 'edges' fields")
    if type(d["n"]) is not int:
        raise ValueError(f"graph JSON field 'n' must be an integer, got {d['n']!r}")
    if type(d["edges"]) is not list or any(
        type(e) is not list or [type(v) for v in e] != [int, int] for e in d["edges"]
    ):
        raise ValueError("graph JSON field 'edges' must be a list of [u, v] integer pairs")
    if type(parts := d.get("parts", [])) is not list or any(type(c) is not list for c in parts):
        raise ValueError("graph JSON field 'parts' must be a list of lists")


def from_json_dict(d: dict) -> Digraph:
    _check_graph_json(d)
    return Digraph(n=d["n"], edges=frozenset(tuple(e) for e in d["edges"]))


def subgraph_from_json(d: dict) -> SampledSubgraph:
    """Reconstruct a layered subgraph from JSON carrying "parts".

    Requires the standard contiguous part numbering (part c = range(c*k,
    (c+1)*k)) and all edges between consecutive parts.
    """
    _check_graph_json(d)
    if "parts" not in d:
        raise ValueError("layered reconstruction requires a 'parts' field")
    parts = d["parts"]
    ell = len(parts)
    if ell < 2:
        raise ValueError("need at least 2 parts")
    k = len(parts[0])
    if any(len(p) != k for p in parts):
        raise ValueError("all parts must have equal size")
    expected = [list(range(c * k, (c + 1) * k)) for c in range(ell)]
    if parts != expected:
        raise ValueError("parts must follow the contiguous numbering c*k + i")
    if d["n"] != k * ell:
        raise ValueError(
            f"graph JSON field 'n' is {d['n']}, but its parts hold k*ell = {k * ell} vertices"
        )
    base = BlowupDigraph(k=k, ell=ell)
    indices = []
    for u, v in d["edges"]:
        c, i = divmod(u, k)
        cv, j = divmod(v, k)
        if cv != (c + 1) % ell:
            raise ValueError(f"edge ({u}, {v}) does not go to the successor part")
        indices.append(c * k * k + i * k + j)
    return SampledSubgraph.from_edge_indices(base, indices)

