"""Unit tests for triangle counting and clustering coefficients."""

import networkx as nx
import numpy as np
import pytest

from repro.graph import from_edges, from_networkx
from repro.measures import (
    average_clustering,
    clustering_coefficients,
    edge_supports,
    total_triangles,
    vertex_triangles,
)


class TestEdgeSupports:
    def test_triangle(self):
        g = from_edges([(0, 1), (1, 2), (2, 0)])
        assert (edge_supports(g) == 1).all()

    def test_square_no_triangles(self):
        g = from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        assert (edge_supports(g) == 0).all()

    def test_matches_networkx_definition(self):
        G = nx.gnm_random_graph(40, 140, seed=2)
        g = from_networkx(G)
        supports = edge_supports(g)
        for (u, v), s in zip(g.edge_array(), supports):
            common = set(G[u]) & set(G[v])
            assert s == len(common)

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_small_chunks_match_networkx(self, monkeypatch, chunk):
        """Triangles whose wedges straddle a chunk boundary count once."""
        from repro.measures import triangles

        monkeypatch.setattr(triangles, "_PAIR_CHUNK", chunk)
        G = nx.powerlaw_cluster_graph(60, 4, 0.7, seed=chunk)
        g = from_networkx(G)
        for (u, v), s in zip(g.edge_array(), edge_supports(g)):
            assert s == len(set(G[u]) & set(G[v]))


class TestVertexTriangles:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_networkx(self, seed):
        G = nx.gnm_random_graph(50, 180, seed=seed)
        g = from_networkx(G)
        ours = vertex_triangles(g)
        theirs = nx.triangles(G)
        assert all(ours[v] == theirs[v] for v in G)

    def test_integer_exact(self):
        G = nx.powerlaw_cluster_graph(300, 6, 0.8, seed=1)
        g = from_networkx(G)
        ours = vertex_triangles(g)
        assert ours.dtype == np.int64
        expected = np.zeros(g.n_vertices, dtype=np.int64)
        for (u, v), s in zip(g.edge_array(), edge_supports(g)):
            expected[u] += s
            expected[v] += s
        assert np.array_equal(ours, expected // 2)

    def test_total(self):
        G = nx.gnm_random_graph(40, 150, seed=7)
        g = from_networkx(G)
        assert total_triangles(g) == sum(nx.triangles(G).values()) // 3


class TestClustering:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_networkx(self, seed):
        G = nx.gnm_random_graph(50, 180, seed=seed)
        g = from_networkx(G)
        ours = clustering_coefficients(g)
        theirs = nx.clustering(G)
        assert all(abs(ours[v] - theirs[v]) < 1e-12 for v in G)

    def test_average(self):
        G = nx.gnm_random_graph(40, 120, seed=9)
        g = from_networkx(G)
        assert average_clustering(g) == pytest.approx(nx.average_clustering(G))

    def test_low_degree_zero(self):
        g = from_edges([(0, 1)])
        assert (clustering_coefficients(g) == 0).all()

    def test_empty_graph(self):
        g = from_edges([], nodes=[])
        assert average_clustering(g) == 0.0
