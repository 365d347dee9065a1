"""Property: vector traversal measures ≡ naive per-source/per-item code.

BFS-derived values (harmonic, closeness) must be byte-identical — the
frontier kernel computes the very same integer distances.  Betweenness
sums float dependencies in a different order, so it gets atol=1e-9.
K-core and k-truss are integer vectors and must match exactly; k-truss
is checked against the fixed loop oracle on every backend.
"""

import numpy as np
from hypothesis import given, settings

from repro.measures import core_numbers, truss_numbers
from repro.measures.centrality import (
    _bfs_distances,
    betweenness_centrality,
    closeness_centrality,
    harmonic_centrality,
)
from repro.accel import traverse

from accel_strategies import graphs
from truss_oracle import oracle_truss_numbers


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_bfs_distances_identical(graph):
    for source in range(0, graph.n_vertices, max(1, graph.n_vertices // 5)):
        naive = _bfs_distances(graph, source)
        vector = traverse.bfs_distances(graph.indptr, graph.indices, source)
        assert np.array_equal(naive, vector)


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_harmonic_identical(graph):
    naive = harmonic_centrality(graph, backend="naive")
    vector = harmonic_centrality(graph, backend="vector")
    assert np.array_equal(naive, vector)


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_closeness_identical(graph):
    naive = closeness_centrality(graph, backend="naive")
    vector = closeness_centrality(graph, backend="vector")
    assert np.array_equal(naive, vector)


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_betweenness_close(graph):
    naive = betweenness_centrality(graph, backend="naive")
    vector = betweenness_centrality(graph, backend="vector")
    assert np.allclose(naive, vector, atol=1e-9, rtol=0)


@settings(max_examples=20, deadline=None)
@given(graphs())
def test_betweenness_sampled_same_pivots(graph):
    naive = betweenness_centrality(graph, samples=7, seed=3, backend="naive")
    vector = betweenness_centrality(graph, samples=7, seed=3, backend="vector")
    assert np.allclose(naive, vector, atol=1e-9, rtol=0)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_core_numbers_identical(graph):
    naive = core_numbers(graph, backend="naive")
    vector = core_numbers(graph, backend="vector")
    assert np.array_equal(naive, vector)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_truss_numbers_identical(graph):
    expected = oracle_truss_numbers(graph)
    for backend in ("naive", "vector", "native"):
        assert np.array_equal(truss_numbers(graph, backend=backend), expected)


@settings(max_examples=15, deadline=None)
@given(graphs())
def test_sources_restriction_matches_full(graph):
    """Partial harmonic over a source subset equals the full vector's
    entries at those sources, on both backends."""
    sources = list(range(0, graph.n_vertices, 2))
    full = harmonic_centrality(graph, backend="vector")
    for backend in ("naive", "vector"):
        part = harmonic_centrality(graph, backend=backend, sources=sources)
        assert np.array_equal(part[sources], full[sources])
        untouched = np.ones(graph.n_vertices, dtype=bool)
        untouched[sources] = False
        assert not part[untouched].any()
