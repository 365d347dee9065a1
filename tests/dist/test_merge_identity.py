"""The dist contract: shard-merged trees are identical to single-process.

Acceptance-criteria coverage: three partitioners × multiple measures,
parents AND scalars AND super-tree topology, plus hypothesis sweeps
over adversarial shapes (disconnected graphs, duplicate scalars —
exactly where super-node postprocessing and tie-handling could drift).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ScalarGraph, build_super_tree, build_vertex_tree
from repro.dist import PARTITIONERS, build_tree, merged_field, partition_edges
from repro.dist import executor
from repro.dist.executor import reduce_shard, shard_degree
from repro.accel.tree import rank_order, vertex_tree_parents
from repro.engine import ArtifactCache, registry
from repro.engine.cache import fingerprint_array, stage_key
from repro.graph import generators

MEASURES = ["degree", "kcore"]


def _graphs():
    return {
        "powerlaw": generators.powerlaw_cluster(600, 2, 0.4, seed=3),
        "disconnected": generators.connected_caveman(6, 8),
        "hubs": generators.hub_and_spoke(40, 3),
    }


@pytest.mark.parametrize("method", PARTITIONERS)
@pytest.mark.parametrize("measure", MEASURES)
def test_identity_partitioners_by_measures(method, measure):
    for name, graph in _graphs().items():
        scalars = registry.compute(measure, graph)
        ref_tree = build_vertex_tree(ScalarGraph(graph, scalars))
        ref_super = build_super_tree(ref_tree)
        shards = partition_edges(graph, 4, method)
        tree, summary = build_tree(scalars, shards)
        assert summary["n_shards"] == 4 and summary["method"] == method

        assert np.array_equal(tree.parent, ref_tree.parent), (name, method)
        assert np.array_equal(tree.scalars, ref_tree.scalars)
        assert tree.kind == ref_tree.kind

        sup = build_super_tree(tree)
        assert np.array_equal(sup.parent, ref_super.parent)
        assert np.array_equal(sup.scalars, ref_super.scalars)
        assert len(sup.members) == len(ref_super.members)
        for a, b in zip(sup.members, ref_super.members):
            assert np.array_equal(a, b)


def test_merged_degree_field_equals_global():
    graph = _graphs()["powerlaw"]
    for method in PARTITIONERS:
        shards = partition_edges(graph, 3, method)
        merged = merged_field("degree", shards)
        assert np.array_equal(merged, registry.compute("degree", graph))


def test_non_mergeable_field_returns_none():
    shards = partition_edges(_graphs()["powerlaw"], 2, "hash")
    assert merged_field("kcore", shards) is None


def test_reduce_shard_is_a_merge_forest():
    """The kept set reproduces the shard-local forest exactly and is at
    most n-1 edges."""
    graph = generators.powerlaw_cluster(400, 2, 0.3, seed=9)
    rng = np.random.default_rng(1)
    scalars = rng.uniform(size=graph.n_vertices)
    __, rank = rank_order(scalars)
    shard = partition_edges(graph, 3, "hash")[1]
    kept = reduce_shard(graph.n_vertices, shard.edges, rank)
    assert len(kept) <= graph.n_vertices - 1
    # Replaying only the kept edges yields the same local forest as
    # replaying all of the shard's edges.
    full = vertex_tree_parents(graph.n_vertices, shard.edges, rank)
    reduced = vertex_tree_parents(graph.n_vertices, kept, rank)
    assert np.array_equal(full, reduced)
    # And the kept pairs are a subset of the shard's edges.
    shard_keys = set(map(tuple, shard.edges.tolist()))
    assert set(map(tuple, kept.tolist())) <= shard_keys


def test_shard_degree_collapses_duplicates():
    edges = np.array([[0, 1], [0, 1], [1, 2]])
    assert shard_degree(4, edges).tolist() == [1.0, 2.0, 1.0, 0.0]


def test_duplicate_scalars_and_ties():
    """Integer fields with heavy ties are the regime Algorithm 2 exists
    for; the sharded build must agree on the raw tree bit-for-bit."""
    graph, __ = generators.planted_cliques(150, 300, [8, 8, 10], seed=4)
    scalars = registry.compute("kcore", graph)
    ref = build_vertex_tree(ScalarGraph(graph, scalars))
    for method in PARTITIONERS:
        tree, __ = build_tree(scalars, partition_edges(graph, 5, method))
        assert np.array_equal(tree.parent, ref.parent)


def test_empty_and_edgeless_graphs():
    from repro.graph.builders import empty_graph

    graph = empty_graph(7)
    scalars = np.arange(7, dtype=float)
    shards = partition_edges(graph, 2, "hash")
    tree, __ = build_tree(scalars, shards)
    ref = build_vertex_tree(ScalarGraph(graph, scalars))
    assert np.array_equal(tree.parent, ref.parent)
    assert (tree.parent == -1).all()


def test_warm_rebuild_reuses_cached_forests():
    """A second build over the same shards and field reduces nothing:
    every merge forest comes from the cache."""
    graph = generators.powerlaw_cluster(400, 2, 0.3, seed=8)
    scalars = registry.compute("kcore", graph)
    shards = partition_edges(graph, 3, "hash")
    cache = ArtifactCache()
    first, __ = build_tree(scalars, shards, cache=cache)
    jobs = executor._M_REDUCE_JOBS.value()
    hits = executor._M_REDUCE_HITS.value()
    second, __ = build_tree(scalars, shards, cache=cache)
    assert executor._M_REDUCE_JOBS.value() == jobs
    assert executor._M_REDUCE_HITS.value() == hits + 3
    assert np.array_equal(second.parent, first.parent)


def test_poisoned_cached_forest_is_rederived():
    """A cached forest that fails validation is reduced again and the
    good forest replaces it in the cache."""
    graph = generators.powerlaw_cluster(300, 2, 0.3, seed=12)
    scalars = registry.compute("degree", graph)
    shards = partition_edges(graph, 2, "hash")
    ref = build_vertex_tree(ScalarGraph(graph, scalars))
    cache = ArtifactCache()
    build_tree(scalars, shards, cache=cache)
    key = stage_key(
        "dist-reduce",
        {"method": "hash", "n_shards": 2},
        shards[0].fingerprint(),
        fingerprint_array(scalars),
    )
    assert cache.get(key) is not None
    cache.put(key, np.full((3, 2), graph.n_vertices, dtype=np.int64))
    poisoned = executor._M_POISONED.value()
    tree, __ = build_tree(scalars, shards, cache=cache)
    assert executor._M_POISONED.value() == poisoned + 1
    assert np.array_equal(tree.parent, ref.parent)
    assert executor._valid_forest(cache.get(key), graph.n_vertices)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(5, 80),
    m=st.integers(0, 200),
    n_shards=st.integers(1, 6),
    method=st.sampled_from(PARTITIONERS),
    levels=st.integers(1, 4),
    seed=st.integers(0, 10),
)
def test_property_identity(n, m, n_shards, method, levels, seed):
    """Random graphs × quantized random fields (forcing ties) —
    parents identical for every partitioner and shard count."""
    m = min(m, n * (n - 1) // 2)
    graph = generators.erdos_renyi(n, m, seed=seed)
    rng = np.random.default_rng(seed + 99)
    scalars = np.floor(
        rng.uniform(0, levels, graph.n_vertices)
    ).astype(np.float64)
    ref = build_vertex_tree(ScalarGraph(graph, scalars))
    tree, __ = build_tree(scalars, partition_edges(graph, n_shards, method))
    assert np.array_equal(tree.parent, ref.parent)
    assert np.array_equal(tree.scalars, ref.scalars)
