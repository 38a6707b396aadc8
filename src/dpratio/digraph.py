"""Digraphs, the blow-up construction, and uniform m-edge subgraph sampling.

`Digraph` is a general digraph; `SampledSubgraph` is a blow-up subgraph,
and the full blow-up (`build_blowup`) is the one that keeps every edge.

Vertex numbering convention (part of the external format): the i-th vertex
of part c (0-based) has index c*k + i.  Edges of the blow-up are indexed
c*k*k + i*k + j, meaning part-c vertex i -> part-(c+1 mod ell) vertex j.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import TextIO

SCHEMA_VERSION = 1

@dataclass(frozen=True)
class Digraph:
    """A simple digraph on vertices 0..n-1 with no self-loops.  Edges given
    as a list, as the file readers give them, must not repeat."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        edges = frozenset(self.edges)
        for u, v in edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")
        if isinstance(self.edges, list) and len(edges) < len(self.edges):
            (u, v), _ = Counter(self.edges).most_common(1)[0]
            raise ValueError(f"duplicate edge ({u}, {v})")
        object.__setattr__(self, "edges", edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def blowup_edge_count(k: int, ell: int) -> int:
    """k^2*ell, the edge count of the blow-up; ValueError unless k >= 1 and
    ell >= 2.  Constant time, so a shape check costs nothing at any k."""
    if k < 1:
        raise ValueError(f"part size k must be >= 1, got {k}")
    if ell < 2:
        raise ValueError(f"number of parts ell must be >= 2, got {ell}")
    return k * k * ell


@dataclass(frozen=True)
class SampledSubgraph:
    """A subgraph of the blow-up of a directed ell-cycle: each cycle vertex
    becomes a part of k vertices, each cycle edge a directed bipartite layer
    from part c to part c+1.  `build_blowup` gives the full blow-up, the
    subgraph that keeps all k^2*ell edges.

    layers[c][i] has bit j set iff edge (part-c vertex i -> part-(c+1)
    vertex j) is retained.
    """

    k: int
    ell: int
    layers: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        k, ell = self.k, self.ell
        blowup_edge_count(k, ell)
        if len(self.layers) != ell or any(len(rows) != k for rows in self.layers):
            raise ValueError("layers must be ell tuples of k row masks")
        full = (1 << k) - 1
        if any(row & ~full for rows in self.layers for row in rows):
            raise ValueError("row mask has bits outside 0..k-1")

    @property
    def vertex_count(self) -> int:
        return self.k * self.ell

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for rows in self.layers for row in rows)

    @classmethod
    def from_edge_indices(cls, base: SampledSubgraph, indices) -> SampledSubgraph:
        """The subgraph keeping the listed edges of the blow-up of base's
        shape; reads only base.k and base.ell."""
        k, ell = base.k, base.ell
        total = blowup_edge_count(k, ell)
        rows = [[0] * k for _ in range(ell)]
        for e in indices:
            if not (0 <= e < total):
                raise ValueError(f"edge index {e} out of range")
            c, rem = divmod(e, k * k)
            i, j = divmod(rem, k)
            rows[c][i] |= 1 << j
        return cls(k=k, ell=ell, layers=tuple(tuple(r) for r in rows))

    def edge_list(self) -> list[tuple[int, int]]:
        k, ell = self.k, self.ell
        out = []
        for c in range(ell):
            for i in range(k):
                row = self.layers[c][i]
                u = c * k + i
                cn = (c + 1) % ell
                while row:
                    j = (row & -row).bit_length() - 1
                    out.append((u, cn * k + j))
                    row &= row - 1
        return out


def build_blowup(k: int, ell: int) -> SampledSubgraph:
    """The blow-up of a directed ell-cycle with parts of size k: every
    layer a complete directed bipartite graph, k*ell vertices and k^2*ell
    edges."""
    blowup_edge_count(k, ell)
    return SampledSubgraph(k=k, ell=ell, layers=(((1 << k) - 1,) * k,) * ell)


def sample_subgraph(base: SampledSubgraph, m: int, seed: int) -> SampledSubgraph:
    """Uniformly random m-edge subgraph of the blow-up of base's shape;
    deterministic in (base.k, base.ell, m, seed), and reads nothing else.

    Partial Fisher-Yates over the edge index array: every m-subset of the
    k^2*ell edges is equally likely.
    """
    total = blowup_edge_count(base.k, base.ell)
    if not (0 <= m <= total):
        raise ValueError(f"m must be in [0, {total}], got {m}")
    rng = random.Random(seed)
    idx = list(range(total))
    for t in range(m):
        j = rng.randrange(t, total)
        idx[t], idx[j] = idx[j], idx[t]
    return SampledSubgraph.from_edge_indices(base, idx[:m])


def to_general(g: SampledSubgraph) -> Digraph:
    """Flatten to an edge-list digraph under the documented vertex numbering."""
    return Digraph(n=g.vertex_count, edges=frozenset(g.edge_list()))


# ---------------------------------------------------------------------------
# External formats
#
# Every JSON object carries "schema": SCHEMA_VERSION.  One value rule for
# every report: a Fraction is written "n/d", and None (a value that does not
# exist, such as log p at p = 0) is JSON null or an empty CSV cell; a float
# taken from a Fraction past the float range is an error naming its field.


def _value(v):
    return f"{v.numerator}/{v.denominator}" if isinstance(v, Fraction) else v


def report_json(report) -> dict:
    """A report dataclass as JSON: "schema", then its fields in order."""
    return {"schema": SCHEMA_VERSION, **{k: _value(v) for k, v in vars(report).items()}}


def exact_float(name: str, q: Fraction) -> float:
    """q as a float; ValueError naming the report field when q is past the float range."""
    try:
        return float(q)
    except OverflowError:
        raise ValueError(f"{name} is past the float range (|value| > 1.8e308)") from None


def json_text(d: dict) -> str:
    """Indented JSON; a non-finite float raises ValueError, as it is not JSON."""
    return json.dumps(d, indent=2, allow_nan=False) + "\n"


def csv_text(columns: str, rows) -> str:
    """The header `columns`, then one line per row, a dict by column name."""
    names = columns.split(",")
    lines = [columns] + [
        ",".join("" if row[c] is None else str(_value(row[c])) for c in names) for row in rows
    ]
    return "\n".join(lines) + "\n"


def write_edgelist(g: Digraph, f: TextIO) -> None:
    """Text format: first line "n m", then m lines "u v" (0-based)."""
    edges = sorted(g.edges)
    f.write(f"{g.n} {len(edges)}\n")
    for u, v in edges:
        f.write(f"{u} {v}\n")


def _int_pair(line: str, what: str) -> tuple[int, int]:
    """The two integers of one line of the edge-list format; ValueError
    naming the line otherwise."""
    try:
        a, b = map(int, line.split())
    except ValueError:
        raise ValueError(f"expected {what} of two integers, got {line.strip()!r}") from None
    return a, b


def read_edgelist(f: TextIO) -> Digraph:
    """The text format of write_edgelist: a header "n m", then m distinct
    "u v" lines and nothing more but blank lines.  ValueError otherwise."""
    n, m = _int_pair(f.readline(), "header line 'n m'")
    if m < 0:
        raise ValueError(f"edge count in header must be >= 0, got {m}")
    edges = [_int_pair(f.readline(), "edge line 'u v'") for _ in range(m)]
    if any(line.strip() for line in f):
        raise ValueError(f"more edge lines than the header's m = {m}")
    return Digraph(n=n, edges=edges)


def to_json_dict(g: Digraph | SampledSubgraph) -> dict:
    """The graph's "schema", "n" and sorted "edges"; "parts" too for a blow-up subgraph."""
    flat = g if isinstance(g, Digraph) else to_general(g)
    d = {
        "schema": SCHEMA_VERSION,
        "n": flat.n,
        "edges": sorted([list(e) for e in flat.edges]),
    }
    if flat is not g:
        d["parts"] = [list(range(c * g.k, (c + 1) * g.k)) for c in range(g.ell)]
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
    return Digraph(n=d["n"], edges=[tuple(e) for e in d["edges"]])


def subgraph_from_json(d: dict) -> SampledSubgraph:
    """Reconstruct a layered subgraph from JSON carrying "parts".

    The graph must first read as a digraph (from_json_dict), and then have
    the standard contiguous part numbering (part c = range(c*k, (c+1)*k))
    and all edges between consecutive parts.
    """
    from_json_dict(d)
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
    base = build_blowup(k, ell)
    indices = []
    for u, v in d["edges"]:
        c, i = divmod(u, k)
        cv, j = divmod(v, k)
        if cv != (c + 1) % ell:
            raise ValueError(f"edge ({u}, {v}) does not go to the successor part")
        indices.append(c * k * k + i * k + j)
    return SampledSubgraph.from_edge_indices(base, indices)

