"""Unit tests for graph builders."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    empty_graph,
    from_edge_array,
    from_edges,
    from_networkx,
    to_networkx,
)


class TestFromEdgeArray:
    def test_self_loops_dropped(self):
        g = from_edge_array(np.array([[0, 0], [0, 1]]))
        assert g.n_edges == 1

    def test_duplicates_collapsed_both_orientations(self):
        g = from_edge_array(np.array([[0, 1], [1, 0], [0, 1]]))
        assert g.n_edges == 1

    def test_explicit_vertex_count(self):
        g = from_edge_array(np.array([[0, 1]]), n_vertices=5)
        assert g.n_vertices == 5
        assert g.degree(4) == 0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            from_edge_array(np.array([[0, 7]]), n_vertices=3)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            from_edge_array(np.array([[0, 1, 2]]))

    def test_empty(self):
        g = from_edge_array(np.empty((0, 2), dtype=np.int64))
        assert g.n_vertices == 0
        assert g.n_edges == 0

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_set_reference(self, data):
        # Pairs over a prefix of the vertices (so trailing vertices stay
        # isolated), with repeats, both orientations and self-loops.
        n = data.draw(st.integers(min_value=0, max_value=12))
        used = data.draw(st.integers(min_value=0, max_value=n))
        vertex = st.integers(min_value=0, max_value=max(used - 1, 0))
        pairs = data.draw(st.lists(
            st.tuples(vertex, vertex), max_size=40 if used else 0
        ))
        pairs += data.draw(st.lists(
            st.sampled_from(pairs), max_size=10
        )) if pairs else []
        pairs += [(v, u) for u, v in pairs[::2]]
        g = from_edge_array(
            np.array(pairs, dtype=np.int64).reshape(-1, 2), n_vertices=n
        )
        adjacency = {v: set() for v in range(n)}
        for u, v in pairs:
            if u != v:
                adjacency[u].add(v)
                adjacency[v].add(u)
        assert g.n_vertices == n
        assert g.indptr.tolist() == np.cumsum(
            [0] + [len(adjacency[v]) for v in range(n)]
        ).tolist()
        assert g.indices.tolist() == [
            w for v in range(n) for w in sorted(adjacency[v])
        ]
        assert g.indptr.dtype == g.indices.dtype == np.int64


class TestFromEdges:
    def test_string_labels_sorted(self):
        g = from_edges([("b", "a"), ("c", "b")])
        assert list(g.labels) == ["a", "b", "c"]
        assert sorted(g.edges()) == [(0, 1), (1, 2)]

    def test_isolated_nodes_via_nodes_arg(self):
        g = from_edges([(0, 1)], nodes=[0, 1, 2, 3])
        assert g.n_vertices == 4

    def test_integer_labels_dtype(self):
        g = from_edges([(10, 20)])
        assert g.labels.dtype == np.int64
        assert list(g.labels) == [10, 20]

    def test_no_edges_with_nodes(self):
        g = from_edges([], nodes=["x", "y"])
        assert g.n_vertices == 2
        assert g.n_edges == 0


class TestNetworkxInterop:
    def test_roundtrip_structure(self):
        G = nx.karate_club_graph()
        g = from_networkx(G)
        assert g.n_vertices == G.number_of_nodes()
        assert g.n_edges == G.number_of_edges()
        back = to_networkx(g)
        assert nx.is_isomorphic(G, back)

    def test_degrees_match(self):
        G = nx.gnm_random_graph(50, 120, seed=1)
        g = from_networkx(G)
        for v in G:
            assert g.degree(v) == G.degree(v)


class TestEmptyGraph:
    def test_sizes(self):
        g = empty_graph(7)
        assert g.n_vertices == 7
        assert g.n_edges == 0
        assert g.n_components() == 7
