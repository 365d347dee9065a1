"""Property: traversal measures ≡ the per-source/per-item loop oracles.

BFS-derived values (harmonic, closeness) must be byte-identical — the
frontier kernel computes the very same integer distances.  Betweenness
sums float dependencies in a different order, so it gets atol=1e-9.
K-core and k-truss are integer vectors and must match exactly.  Each
runtime path is checked on both tiers (``vector``, and ``native``,
which resolves to ``vector`` where no C kernel loads).
"""

import numpy as np
from hypothesis import given, settings

from repro import accel
from repro.measures import core_numbers, truss_numbers
from repro.measures.centrality import (
    betweenness_centrality,
    closeness_centrality,
    harmonic_centrality,
)
from repro.accel import traverse

from accel_strategies import graphs
from oracles import (
    oracle_betweenness,
    oracle_bfs_distances,
    oracle_closeness,
    oracle_core_numbers,
    oracle_harmonic,
)
from truss_oracle import oracle_truss_numbers

TIERS = ("vector", "native")


def _each_tier(fn, *args, **kwargs):
    for tier in TIERS:
        with accel.using(tier):
            yield tier, fn(*args, **kwargs)


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_bfs_distances_identical(graph):
    for source in range(0, graph.n_vertices, max(1, graph.n_vertices // 5)):
        naive = oracle_bfs_distances(graph, source)
        vector = traverse.bfs_distances(graph.indptr, graph.indices, source)
        assert np.array_equal(naive, vector)


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_harmonic_identical(graph):
    expected = oracle_harmonic(graph)
    for tier, got in _each_tier(harmonic_centrality, graph):
        assert np.array_equal(expected, got), tier


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_closeness_identical(graph):
    expected = oracle_closeness(graph)
    for tier, got in _each_tier(closeness_centrality, graph):
        assert np.array_equal(expected, got), tier


@settings(max_examples=30, deadline=None)
@given(graphs())
def test_betweenness_close(graph):
    expected = oracle_betweenness(graph)
    for tier, got in _each_tier(betweenness_centrality, graph):
        assert np.allclose(expected, got, atol=1e-9, rtol=0), tier


@settings(max_examples=20, deadline=None)
@given(graphs())
def test_betweenness_sampled_same_pivots(graph):
    expected = oracle_betweenness(graph, samples=7, seed=3)
    for tier, got in _each_tier(
        betweenness_centrality, graph, samples=7, seed=3
    ):
        assert np.allclose(expected, got, atol=1e-9, rtol=0), tier


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_core_numbers_identical(graph):
    expected = oracle_core_numbers(graph)
    for tier, got in _each_tier(core_numbers, graph):
        assert np.array_equal(expected, got), tier


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_truss_numbers_identical(graph):
    expected = oracle_truss_numbers(graph)
    for tier, got in _each_tier(truss_numbers, graph):
        assert np.array_equal(got, expected), tier


@settings(max_examples=15, deadline=None)
@given(graphs())
def test_sources_restriction_matches_full(graph):
    """Partial harmonic over a source subset equals the full vector's
    entries at those sources, and the oracle's partial run."""
    sources = list(range(0, graph.n_vertices, 2))
    full = harmonic_centrality(graph)
    untouched = np.ones(graph.n_vertices, dtype=bool)
    untouched[sources] = False
    for part in (
        harmonic_centrality(graph, sources=sources),
        oracle_harmonic(graph, sources=sources),
    ):
        assert np.array_equal(part[sources], full[sources])
        assert not part[untouched].any()
