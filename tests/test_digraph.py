import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpratio.digraph import (
    Digraph,
    SampledSubgraph,
    build_blowup,
    enumerate_subgraphs,
    from_json_dict,
    read_edgelist,
    sample_subgraph,
    subgraph_from_json,
    to_general,
    to_json_dict,
    write_edgelist,
)


def test_build_blowup_2_3():
    g = build_blowup(2, 3)
    assert g.vertex_count == 6
    assert g.edge_count == 12
    flat = to_general(g)
    # each layer is a complete directed bipartite K_{2,2}
    for c in range(3):
        for i in range(2):
            for j in range(2):
                assert (c * 2 + i, ((c + 1) % 3) * 2 + j) in flat.edges


def test_build_blowup_1_3_is_directed_triangle():
    flat = to_general(build_blowup(1, 3))
    assert flat.n == 3
    assert flat.edges == frozenset({(0, 1), (1, 2), (2, 0)})


def test_build_blowup_rejects_bad_args():
    with pytest.raises(ValueError):
        build_blowup(1, 1)
    with pytest.raises(ValueError):
        build_blowup(0, 3)


@given(k=st.integers(1, 6), ell=st.integers(2, 5))
def test_blowup_sizes(k, ell):
    g = build_blowup(k, ell)
    assert g.vertex_count == k * ell
    assert g.edge_count == k * k * ell
    assert to_general(g).edge_count == k * k * ell


def test_digraph_rejects_loops_and_range():
    with pytest.raises(ValueError):
        Digraph(n=2, edges=frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Digraph(n=2, edges=frozenset({(0, 5)}))


def test_sample_full_and_empty():
    base = build_blowup(2, 2)
    full = sample_subgraph(base, 8, 7)
    assert to_general(full).edges == to_general(base).edges
    empty = sample_subgraph(base, 0, 7)
    assert to_general(empty).edges == frozenset()


def test_sample_determinism():
    base = build_blowup(3, 3)
    a = sample_subgraph(base, 11, 99)
    b = sample_subgraph(base, 11, 99)
    assert a == b
    c = sample_subgraph(base, 11, 100)
    assert a != c  # overwhelmingly likely for distinct seeds


def test_sample_out_of_range():
    base = build_blowup(2, 2)
    with pytest.raises(ValueError):
        sample_subgraph(base, 9, 0)
    with pytest.raises(ValueError):
        sample_subgraph(base, -1, 0)


def test_sample_uniformity():
    # each of the C(8,4) = 70 subsets within 5 sigma of its expected count
    from dpratio.experiment import derive_seed

    base = build_blowup(2, 2)
    trials = 50_000
    counts = {}
    for t in range(trials):
        g = sample_subgraph(base, 4, derive_seed(2024, t))
        key = tuple(sorted(g.edge_list()))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 70
    q = 1 / 70
    sigma = math.sqrt(trials * q * (1 - q))
    for c in counts.values():
        assert abs(c - trials * q) <= 5 * sigma


def test_enumerate_counts():
    base = build_blowup(2, 2)
    assert sum(1 for _ in enumerate_subgraphs(base, 6)) == 28
    assert sum(1 for _ in enumerate_subgraphs(base, 8)) == 1
    seen = {tuple(sorted(g.edge_list())) for g in enumerate_subgraphs(base, 6)}
    assert len(seen) == 28


def test_enumerate_cap():
    base = build_blowup(3, 3)
    assert math.comb(27, 13) == 20_058_300
    with pytest.raises(ValueError):
        next(iter(enumerate_subgraphs(base, 13)))


@settings(max_examples=30)
@given(k=st.integers(1, 4), ell=st.integers(2, 4), seed=st.integers(0, 2**64 - 1), data=st.data())
def test_roundtrip_edge_count(k, ell, seed, data):
    base = build_blowup(k, ell)
    m = data.draw(st.integers(0, base.edge_count))
    g = sample_subgraph(base, m, seed)
    assert to_general(g).edge_count == m


def test_edgelist_roundtrip():
    g = to_general(build_blowup(2, 3))
    buf = io.StringIO()
    write_edgelist(g, buf)
    buf.seek(0)
    assert read_edgelist(buf) == g


def test_json_roundtrip_plain():
    g = to_general(build_blowup(1, 3))
    d = to_json_dict(g)
    assert d["schema"] == 1
    assert from_json_dict(json.loads(json.dumps(d))) == g


def test_json_readers_reject_non_graphs():
    layered = to_json_dict(build_blowup(2, 2))
    bad_types = (
        {"n": 3, "edges": [1]},
        {"n": "3", "edges": []},
        {"n": 4, "edges": [], "parts": 5},
        {"n": 3, "edges": [[0, 1, 2]]},
    )
    for d in (3, [], {"n": 3}, {"edges": []}, *bad_types):
        with pytest.raises(ValueError):
            from_json_dict(d)
    for d in (3, [], {"n": 4, "parts": layered["parts"]}, *bad_types):
        with pytest.raises(ValueError):
            subgraph_from_json(d)
    with pytest.raises(ValueError, match=r"'n' is 5, but its parts hold k\*ell = 4"):
        subgraph_from_json(
            {"n": 5, "edges": [[0, 2], [2, 0], [1, 3], [3, 1]], "parts": [[0, 1], [2, 3]]}
        )


def test_json_roundtrip_layered():
    base = build_blowup(3, 2)
    g = sample_subgraph(base, 10, 5)
    d = to_json_dict(g)
    assert d["parts"] == [[0, 1, 2], [3, 4, 5]]
    g2 = subgraph_from_json(d)
    assert g2 == g


def test_subgraph_invariant_checks():
    base = build_blowup(2, 2)
    with pytest.raises(ValueError):
        SampledSubgraph(base=base, layers=((4, 0), (0, 0)))  # bit outside 0..k-1
    with pytest.raises(ValueError):
        SampledSubgraph(base=base, layers=((1, 0),))  # one layer of two
