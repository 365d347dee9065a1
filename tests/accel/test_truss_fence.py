"""Fence: triangle supports and k-truss numbers against the fixed oracle.

``edge_supports`` (oriented wedge enumeration in bounded chunks) must
equal the per-edge intersect loop, and ``truss_numbers`` must equal the
loop supports fed to the dict-adjacency peel, on both tiers:
``vector`` runs the Python peel, ``native`` the compiled bin-sort peel
(or, with no working toolchain, the Python peel again).
The graphs cover the shared random strategies, cliques K1–K12, stars,
the empty graph and isolated vertices; the wedge chunk is also forced
down to a few pairs so that triangles straddle chunk boundaries.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel
from repro.graph.builders import empty_graph, from_edge_array
from repro.measures import edge_supports, triangles, truss_numbers

from accel_strategies import graphs
from truss_oracle import loop_edge_supports, oracle_truss_numbers

TIERS = ("vector", "native")


def _truss_on(tier, graph):
    with accel.using(tier):
        return truss_numbers(graph)


def _assert_matches_oracle(graph):
    assert np.array_equal(edge_supports(graph), loop_edge_supports(graph))
    expected = oracle_truss_numbers(graph)
    for tier in TIERS:
        got = _truss_on(tier, graph)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected), tier


def _clique(k, n_vertices=None, offset=0, stride=1):
    pairs = [
        (offset + stride * i, offset + stride * j)
        for i in range(k) for j in range(i + 1, k)
    ]
    return from_edge_array(
        np.array(pairs, dtype=np.int64).reshape(-1, 2),
        n_vertices=n_vertices if n_vertices is not None else k,
    )


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_random_graphs_match_oracle(graph):
    _assert_matches_oracle(graph)


@settings(max_examples=25, deadline=None)
@given(graphs(), st.sampled_from([1, 2, 3, 7, 97]))
def test_chunk_boundaries_match_oracle(graph, chunk):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(triangles, "_PAIR_CHUNK", chunk)
        _assert_matches_oracle(graph)


@pytest.mark.parametrize("k", range(1, 13))
def test_cliques(k):
    graph = _clique(k)
    _assert_matches_oracle(graph)
    # Every edge of K_k lies in k - 2 triangles, and K_k is a (k-2)-truss.
    assert (edge_supports(graph) == k - 2).all()
    for tier in TIERS:
        assert (_truss_on(tier, graph) == k - 2).all()


@pytest.mark.parametrize("leaves", [1, 2, 5, 40])
def test_stars(leaves):
    pairs = np.array([(0, i) for i in range(1, leaves + 1)], dtype=np.int64)
    graph = from_edge_array(pairs)
    _assert_matches_oracle(graph)
    assert not _truss_on("native", graph).any()


@pytest.mark.parametrize("n_vertices", [0, 1, 6])
def test_edgeless(n_vertices):
    graph = empty_graph(n_vertices)
    assert len(edge_supports(graph)) == 0
    for tier in TIERS:
        assert len(_truss_on(tier, graph)) == 0


def test_isolated_vertices_between_clique_members():
    """K6 on the odd ids of 0..14, plus a star on 0: isolated vertices
    sit between and after the clique's vertices."""
    clique = _clique(6, n_vertices=15, offset=1, stride=2).edge_array()
    star = np.array([(0, 2), (0, 4)], dtype=np.int64)
    graph = from_edge_array(np.vstack([clique, star]), n_vertices=15)
    _assert_matches_oracle(graph)
    kt = _truss_on("native", graph)
    assert sorted(np.unique(kt).tolist()) == [0, 4]
