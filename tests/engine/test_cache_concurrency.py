"""ArtifactCache under concurrency: locking, LRU bound, eviction."""

import threading

import numpy as np
import pytest

from repro.core import ScalarGraph, build_super_tree, build_vertex_tree
from repro.engine import ArtifactCache, artifact_nbytes
from repro.core.scalar_tree import ScalarTree
from repro.graph import from_edges
from repro.terrain import layout_tree


def array_kb(fill: float) -> np.ndarray:
    return np.full(128, fill)  # 1 KiB of float64


class TestSizeAccounting:
    def test_array_nbytes(self):
        assert artifact_nbytes(array_kb(0.0)) == 1024

    def test_tree_nbytes_counts_backing_arrays(self):
        tree = ScalarTree(
            np.array([-1, 0, 1], dtype=np.int64),
            np.array([3.0, 2.0, 1.0]),
        )
        assert artifact_nbytes(tree) == 3 * 8 + 3 * 8

    def test_layout_nbytes_counts_disc_arrays(self):
        tree = build_super_tree(build_vertex_tree(ScalarGraph(
            from_edges([(0, 1), (1, 2), (2, 3)]), np.array([1.0, 3.0, 2.0, 4.0])
        )))
        layout = layout_tree(tree)
        # Plus the display tree it pins, evicted from the cache or not.
        assert artifact_nbytes(layout) == (
            3 * 8 * tree.n_nodes + artifact_nbytes(tree)
        )
        assert artifact_nbytes(tree) > 0

    def test_fallback_for_opaque_objects(self):
        assert artifact_nbytes(object()) > 0

    def test_memory_bytes_tracks_contents(self):
        cache = ArtifactCache()
        cache.put("a", array_kb(1.0))
        cache.put("b", array_kb(2.0))
        assert cache.memory_bytes == 2048
        cache.clear()
        assert cache.memory_bytes == 0


class TestLRUBound:
    def test_unbounded_by_default(self):
        cache = ArtifactCache()
        for i in range(100):
            cache.put(f"k{i}", array_kb(i))
        assert len(cache) == 100
        assert cache.stats["evictions"] == 0

    def test_evicts_least_recently_used(self):
        cache = ArtifactCache(max_memory_bytes=3 * 1024)
        for i in range(3):
            cache.put(f"k{i}", array_kb(i))
        cache.get("k0")                      # refresh k0: k1 is now LRU
        cache.put("k3", array_kb(3.0))       # over budget -> evict k1
        assert cache.get("k1") is None
        assert cache.get("k0") is not None
        assert cache.get("k3") is not None
        assert cache.stats["evictions"] == 1
        assert cache.memory_bytes <= 3 * 1024

    def test_oversized_single_entry_is_kept(self):
        cache = ArtifactCache(max_memory_bytes=100)
        value = cache.put("big", array_kb(1.0))
        assert cache.get("big") is value  # never evict the live insert

    def test_replacing_a_key_does_not_double_count(self):
        cache = ArtifactCache(max_memory_bytes=10 * 1024)
        for _ in range(20):
            cache.put("same", array_kb(1.0))
        assert cache.memory_bytes == 1024

    def test_eviction_spares_disk_tier(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_memory_bytes=2 * 1024)
        first = cache.put("first", array_kb(1.0))
        for i in range(4):
            cache.put(f"filler{i}", array_kb(i))
        assert "first" not in cache._memory  # evicted from memory
        reloaded = cache.get("first")        # ...but reloads from disk
        assert np.array_equal(reloaded, first)
        assert cache.stats["disk_hits"] >= 1

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            ArtifactCache(max_memory_bytes=-1)


class TestThreadSafety:
    def test_concurrent_get_put_consistent(self):
        cache = ArtifactCache(max_memory_bytes=64 * 1024)
        errors = []
        barrier = threading.Barrier(8)

        def worker(seed):
            try:
                barrier.wait(timeout=30)
                rng = np.random.default_rng(seed)
                for i in range(300):
                    key = f"k{rng.integers(0, 40)}"
                    if rng.random() < 0.5:
                        cache.put(key, array_kb(float(seed)), disk=False)
                    else:
                        value = cache.get(key)
                        if value is not None:
                            assert value.shape == (128,)
                if seed % 2:
                    cache.clear()
            except Exception as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        # Accounting survived the stampede: recomputing from scratch
        # matches the running total.
        with cache._lock:
            expected = sum(
                artifact_nbytes(v) for v in cache._memory.values()
            )
            assert cache._memory_bytes == expected

    def test_stats_counts_are_plausible_under_threads(self):
        cache = ArtifactCache()
        cache.put("k", array_kb(0.0))

        def reader():
            for _ in range(200):
                assert cache.get("k") is not None

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert cache.stats["hits"] == 800
