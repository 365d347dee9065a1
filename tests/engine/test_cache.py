"""Cache correctness: hit/miss on parameter change, invalidation when
the scalar field or graph changes, and round-trip equality of cached
trees through :mod:`repro.core.serialize`."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import ScalarGraph, build_super_tree, build_vertex_tree
from repro.core.serialize import artifact_from_json, artifact_to_json
from repro.engine import (
    ArtifactCache,
    Pipeline,
    fingerprint_array,
    fingerprint_graph,
    stage_key,
)
from repro.graph import from_edges


@pytest.fixture
def graph():
    return from_edges(
        [(i, j) for i in range(6) for j in range(i + 1, 6)]  # K6
        + [(5, 6), (6, 7), (7, 8)]
    )


@pytest.fixture
def field(graph):
    rng = np.random.default_rng(3)
    return ScalarGraph(graph, rng.integers(0, 4, graph.n_vertices).astype(float))


def assert_super_equal(a, b):
    np.testing.assert_array_equal(a.parent, b.parent)
    np.testing.assert_array_equal(a.scalars, b.scalars)
    assert len(a.members) == len(b.members)
    for ma, mb in zip(a.members, b.members):
        np.testing.assert_array_equal(ma, mb)


class TestFingerprints:
    def test_graph_fingerprint_is_content_based(self, graph):
        same = from_edges([tuple(e) for e in graph.edge_array()])
        assert fingerprint_graph(graph) == fingerprint_graph(same)
        other = from_edges([(0, 1), (1, 2)])
        assert fingerprint_graph(graph) != fingerprint_graph(other)

    def test_array_fingerprint_sensitive_to_values_and_dtype(self):
        a = np.array([1.0, 2.0, 3.0])
        assert fingerprint_array(a) == fingerprint_array(a.copy())
        assert fingerprint_array(a) != fingerprint_array(a + 1)
        assert fingerprint_array(a) != fingerprint_array(a.astype(np.int64))

    def test_stage_key_params_order_insensitive(self):
        k1 = stage_key("s", {"a": 1, "b": 2}, "fp")
        k2 = stage_key("s", {"b": 2, "a": 1}, "fp")
        assert k1 == k2
        assert stage_key("s", {"a": 2, "b": 2}, "fp") != k1


class TestHitMiss:
    def test_repeat_build_hits(self, field):
        cache = ArtifactCache()
        Pipeline(field, cache=cache).build()
        misses_cold = cache.stats["misses"]
        warm = Pipeline(field, cache=cache)
        warm.build()
        # The layout hit short-circuits every upstream stage.
        assert cache.stats["misses"] == misses_cold
        assert cache.stats["hits"] == 1
        warm.display_tree
        assert cache.stats["hits"] == 2

    def test_param_change_misses(self, field):
        cache = ArtifactCache()
        t_exact = Pipeline(field, cache=cache).display_tree
        misses = cache.stats["misses"]
        t_binned = Pipeline(field, bins=2, cache=cache).display_tree
        assert cache.stats["misses"] > misses
        assert t_binned.n_nodes <= t_exact.n_nodes

    def test_scheme_change_misses(self, field):
        cache = ArtifactCache()
        Pipeline(field, bins=2, scheme="quantile", cache=cache).display_tree
        misses = cache.stats["misses"]
        Pipeline(field, bins=2, scheme="uniform", cache=cache).display_tree
        assert cache.stats["misses"] > misses


class TestInvalidation:
    def test_field_change_invalidates(self, field):
        cache = ArtifactCache()
        t1 = Pipeline(field, cache=cache).display_tree
        hits = cache.stats["hits"]
        changed = field.with_scalars(field.scalars[::-1].copy())
        t2 = Pipeline(changed, cache=cache).display_tree
        # Different field fingerprint: nothing reused, fresh artifacts.
        assert cache.stats["hits"] == hits
        assert_super_equal(
            t2, build_super_tree(build_vertex_tree(changed))
        )
        del t1

    def test_graph_change_invalidates(self, graph, field):
        cache = ArtifactCache()
        p1 = Pipeline(graph, "degree", cache=cache)
        p1.build()
        hits = cache.stats["hits"]
        bigger = from_edges(
            [tuple(e) for e in graph.edge_array()] + [(8, 9)]
        )
        p2 = Pipeline(bigger, "degree", cache=cache)
        p2.build()
        assert cache.stats["hits"] == hits
        assert p2.display_tree.n_items == bigger.n_vertices


class TestOneStore:
    def test_evicted_stage_result_is_freed_and_rebuilt(self, field):
        # The pipeline pins no stage result: once the cache evicts a
        # heightfield nothing holds it, and the next call rebuilds it.
        pipeline = Pipeline(field, cache=ArtifactCache(max_memory_bytes=1))
        first = pipeline.heightfield(64)
        height = weakref.ref(first.height)
        want = first.height.copy(), first.node.copy()
        del first
        pipeline.heightfield(32)  # each put evicts the entry before it
        gc.collect()
        assert height() is None
        again = pipeline.heightfield(64)
        np.testing.assert_array_equal(again.height, want[0])
        np.testing.assert_array_equal(again.node, want[1])


class TestDiskTier:
    def test_round_trip_across_instances(self, field, tmp_path):
        cold = Pipeline(field, cache=ArtifactCache(tmp_path))
        t_cold = cold.display_tree
        raw_cold = cold.tree

        # A fresh cache instance over the same directory: artifacts come
        # back from disk, array-identical after the serialize round trip.
        warm_cache = ArtifactCache(tmp_path)
        warm = Pipeline(field, cache=warm_cache)
        t_warm = warm.display_tree
        assert warm_cache.stats["disk_hits"] >= 1
        assert_super_equal(t_cold, t_warm)
        np.testing.assert_array_equal(raw_cold.parent, warm.tree.parent)
        np.testing.assert_array_equal(raw_cold.scalars, warm.tree.scalars)

    def test_artifact_envelope_round_trip(self, field):
        tree = build_vertex_tree(field)
        back = artifact_from_json(artifact_to_json(tree))
        np.testing.assert_array_equal(tree.parent, back.parent)
        np.testing.assert_array_equal(tree.scalars, back.scalars)
        assert back.kind == tree.kind

        sup = build_super_tree(tree)
        assert_super_equal(sup, artifact_from_json(artifact_to_json(sup)))

        arr = np.arange(12, dtype=np.float64).reshape(3, 4)
        np.testing.assert_array_equal(
            arr, artifact_from_json(artifact_to_json(arr))
        )

    def test_corrupt_disk_entry_is_a_miss(self, field, tmp_path):
        cache = ArtifactCache(tmp_path)
        p = Pipeline(field, cache=cache)
        t1 = p.display_tree
        # Truncate every entry (as if a writer died mid-write under an
        # os.replace-less implementation): a fresh cache must treat the
        # files as misses, drop them, and rebuild correctly.
        for path in tmp_path.glob("*.json"):
            path.write_text(path.read_text()[: 10])
        fresh = ArtifactCache(tmp_path)
        t2 = Pipeline(field, cache=fresh).display_tree
        assert fresh.stats["disk_hits"] == 0
        assert_super_equal(t1, t2)

    def test_unserializable_values_stay_in_memory(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put("k", object())
        assert not list(tmp_path.glob("*.json"))
        assert cache.get("k") is not None

    def test_clear(self, field, tmp_path):
        cache = ArtifactCache(tmp_path)
        Pipeline(field, cache=cache).build()
        assert len(cache) > 0
        cache.clear()
        assert len(cache) == 0
        assert list(tmp_path.glob("*.json"))  # disk tier survives
        cache.clear(disk=True)
        assert not list(tmp_path.glob("*.json"))
