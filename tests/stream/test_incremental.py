"""StreamingScalarTree: incremental maintenance behaviour."""

import numpy as np
import pytest

from repro.core import (
    RollbackUnionFind,
    ScalarGraph,
    build_super_tree,
    build_vertex_tree,
)
from repro.graph import from_edges
from repro.graph.generators import erdos_renyi
from repro.stream import AddEdge, RemoveEdge, SetScalar, StreamingScalarTree


@pytest.fixture
def field():
    # Triangle 0-1-2 with pendant chain 2-3-4; distinct scalars.
    graph = from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    return ScalarGraph(graph, [5.0, 4.0, 3.0, 2.0, 1.0])


class TestRollbackUnionFind:
    def test_rollback_restores_sets(self):
        uf = RollbackUnionFind(5)
        uf.union(0, 1)
        token = uf.snapshot()
        uf.union(2, 3)
        uf.union(0, 3)
        assert uf.connected(1, 2)
        uf.rollback(token)
        assert uf.connected(0, 1)
        assert not uf.connected(2, 3)
        assert uf.n_sets == 4
        assert uf.size[uf.find(0)] == 2

    def test_noop_union_not_journalled(self):
        uf = RollbackUnionFind(3)
        uf.union(0, 1)
        token = uf.snapshot()
        uf.union(1, 0)
        assert uf.snapshot() == token

    def test_bad_token(self):
        with pytest.raises(ValueError):
            RollbackUnionFind(2).rollback(5)


class TestStreamingBasics:
    def test_initial_tree_matches_static_build(self, field):
        stream = StreamingScalarTree(field)
        ref = build_vertex_tree(field)
        assert np.array_equal(stream.tree.parent, ref.parent)

    def test_empty_batch_is_noop(self, field):
        stream = StreamingScalarTree(field)
        before = stream.tree
        assert stream.apply([]) is before
        assert stream.stats["last_suffix"] == 0

    def test_set_to_same_value_is_noop(self, field):
        stream = StreamingScalarTree(field)
        before = stream.tree
        assert stream.apply([SetScalar(3, 2.0)]) is before

    def test_low_edit_replays_small_suffix(self, field):
        stream = StreamingScalarTree(field, rebuild_threshold=1.0)
        stream.apply([SetScalar(4, 1.5)])
        # Only the θ=1.5 level (vertex 4) is below the last boundary.
        assert stream.stats["incremental"] == 1
        assert stream.stats["last_suffix"] == 1
        ref = build_vertex_tree(stream.snapshot())
        assert np.array_equal(stream.tree.parent, ref.parent)

    def test_add_edge_connects_components(self):
        graph = from_edges([(0, 1), (2, 3)])
        stream = StreamingScalarTree(
            ScalarGraph(graph, [4.0, 3.0, 2.0, 1.0])
        )
        assert len(stream.tree.roots) == 2
        stream.apply([AddEdge(1, 2)])
        assert len(stream.tree.roots) == 1
        ref = build_vertex_tree(stream.snapshot())
        assert np.array_equal(stream.tree.parent, ref.parent)

    def test_remove_edge_splits_components(self, field):
        stream = StreamingScalarTree(field)
        stream.apply([RemoveEdge(2, 3)])
        assert len(stream.tree.roots) == 2
        ref = build_vertex_tree(stream.snapshot())
        assert np.array_equal(stream.tree.parent, ref.parent)

    def test_threshold_forces_full_rebuild(self, field):
        stream = StreamingScalarTree(field, rebuild_threshold=0.0)
        stream.apply([SetScalar(4, 1.5)])
        assert stream.stats["full_rebuilds"] == 1
        assert stream.stats["incremental"] == 0
        ref = build_vertex_tree(stream.snapshot())
        assert np.array_equal(stream.tree.parent, ref.parent)

    def test_bad_threshold(self, field):
        with pytest.raises(ValueError):
            StreamingScalarTree(field, rebuild_threshold=1.5)

    def test_bad_edit_type(self, field):
        with pytest.raises(TypeError):
            StreamingScalarTree(field).apply(["not-an-edit"])

    def test_invalid_batch_is_atomic(self, field):
        stream = StreamingScalarTree(field)
        parent_before = stream.tree.parent.copy()
        with pytest.raises(IndexError):
            stream.apply([AddEdge(0, 4), SetScalar(999, 1.0)])
        # The valid leading edit must NOT have landed.
        assert not stream.delta.has_edge(0, 4)
        assert np.array_equal(stream.tree.parent, parent_before)
        ref = build_vertex_tree(stream.snapshot())
        assert np.array_equal(stream.tree.parent, ref.parent)

    def test_self_loop_batch_rejected_atomically(self, field):
        stream = StreamingScalarTree(field)
        with pytest.raises(ValueError):
            stream.apply([SetScalar(4, 0.5), AddEdge(2, 2)])
        assert stream.scalars[4] == 1.0


class TestSuperTreeMaintenance:
    def test_super_tree_after_batch_matches_full(self, field):
        stream = StreamingScalarTree(field, rebuild_threshold=1.0)
        first = stream.super_tree()  # prime the cache
        assert first.n_nodes == 5
        stream.apply([SetScalar(4, 1.5), AddEdge(0, 3)])
        sup = stream.super_tree()
        ref = build_super_tree(build_vertex_tree(stream.snapshot()))
        assert np.array_equal(sup.parent, ref.parent)
        assert np.array_equal(sup.scalars, ref.scalars)
        assert all(
            np.array_equal(a, b) for a, b in zip(sup.members, ref.members)
        )

    def test_super_tree_cached_until_next_batch(self, field):
        stream = StreamingScalarTree(field)
        assert stream.super_tree() is stream.super_tree()
        stream.apply([SetScalar(4, 0.5)])
        fresh = stream.super_tree()
        assert fresh is stream.super_tree()

    def test_ties_merge_into_super_nodes(self):
        graph = from_edges([(0, 1), (1, 2), (2, 3)])
        stream = StreamingScalarTree(
            ScalarGraph(graph, [3.0, 2.0, 2.0, 1.0]),
            rebuild_threshold=1.0,
        )
        stream.apply([SetScalar(3, 2.0)])  # now 1, 2, 3 all tie at 2.0
        sup = stream.super_tree()
        sup.validate()
        ref = build_super_tree(build_vertex_tree(stream.snapshot()))
        assert sup.n_nodes == ref.n_nodes
        assert all(
            np.array_equal(a, b) for a, b in zip(sup.members, ref.members)
        )


class TestLongStream:
    def test_many_batches_stay_exact(self):
        rng = np.random.default_rng(3)
        n = 60
        graph = erdos_renyi(n, 150, seed=4)
        field = ScalarGraph(
            graph, rng.integers(0, 6, n).astype(np.float64)
        )
        stream = StreamingScalarTree(field, rebuild_threshold=0.6)
        for step in range(60):
            batch = []
            for _ in range(int(rng.integers(1, 5))):
                kind = int(rng.integers(3))
                u, v = (int(x) for x in rng.choice(n, 2, replace=False))
                if kind == 0:
                    batch.append(
                        SetScalar(u, float(rng.integers(0, 6)))
                    )
                elif kind == 1:
                    batch.append(AddEdge(u, v))
                else:
                    batch.append(RemoveEdge(u, v))
            stream.apply(batch)
            ref = build_vertex_tree(stream.snapshot())
            assert np.array_equal(stream.tree.parent, ref.parent)
            assert np.array_equal(stream.tree.scalars, ref.scalars)
        assert stream.stats["batches"] == 60
        # Both maintenance paths must have been exercised.
        assert stream.stats["incremental"] > 0
        assert (
            stream.stats["incremental"] + stream.stats["full_rebuilds"]
            <= 60
        )
