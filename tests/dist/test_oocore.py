"""Out-of-core scatter: coverage, bounded buffers, manifest integrity."""

import json

import numpy as np
import pytest

from repro.core import ScalarGraph, build_vertex_tree
from repro.dist import (
    ShardIntegrityError,
    build_tree,
    load_shards,
    merged_field,
    partition_edges,
    scatter_edge_list,
)
from repro.engine import registry
from repro.graph import generators
from repro.graph.io import write_edge_list


@pytest.fixture(scope="module")
def graph():
    return generators.powerlaw_cluster(500, 2, 0.3, seed=21)


@pytest.fixture(scope="module")
def edge_file(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("oocore") / "graph.txt"
    write_edge_list(graph, path)
    return path


def _edge_key_set(edges):
    return set(map(tuple, np.asarray(edges).tolist()))


@pytest.mark.parametrize("method", ["hash", "range", "degree"])
def test_scatter_covers_the_file(graph, edge_file, tmp_path, method):
    result = scatter_edge_list(
        edge_file, 3, tmp_path / method, method=method, chunk_edges=128
    )
    assert result.stats["n_edges"] == graph.n_edges
    shards = result.load()
    together = np.concatenate([s.edges for s in shards])
    assert _edge_key_set(together) == _edge_key_set(graph.edge_array())
    assert all(s.n_vertices == graph.n_vertices for s in shards)


def test_hash_scatter_matches_in_memory_partition(graph, edge_file, tmp_path):
    """The stateless partitioner must place every edge exactly where
    the in-memory partitioner does, however the file is chunked."""
    scattered = scatter_edge_list(
        edge_file, 4, tmp_path / "s", method="hash", chunk_edges=97
    ).load()
    in_memory = partition_edges(graph, 4, "hash")
    for disk, mem in zip(scattered, in_memory):
        assert _edge_key_set(disk.edges) == _edge_key_set(mem.edges)
        assert disk.boundary.tolist() == mem.boundary.tolist()


def test_buffer_bound_is_respected(graph, edge_file, tmp_path):
    chunk_edges = 64
    budget = 4096  # absurdly small: forces many flushes
    result = scatter_edge_list(
        edge_file, 3, tmp_path / "bounded", method="hash",
        chunk_edges=chunk_edges, max_buffer_bytes=budget,
    )
    peak = result.stats["peak_buffered_bytes"]
    # The documented bound: max(budget, one parsed chunk).
    assert peak <= max(budget, chunk_edges * 2 * 8)
    assert result.stats["flushes"] >= 2
    # Bounded buffering must not change the result.
    roomy = scatter_edge_list(
        edge_file, 3, tmp_path / "roomy", method="hash",
        chunk_edges=chunk_edges, max_buffer_bytes=1 << 30,
    )
    for a, b in zip(result.load(), roomy.load()):
        assert np.array_equal(a.edges, b.edges)


def test_oocore_build_is_identical(graph, edge_file, tmp_path):
    scalars = registry.compute("degree", graph)
    ref = build_vertex_tree(ScalarGraph(graph, scalars))
    shards = scatter_edge_list(
        edge_file, 3, tmp_path / "build", method="degree", chunk_edges=200
    ).load()
    merged = merged_field("degree", shards)
    assert np.array_equal(merged, scalars)
    tree, __ = build_tree(merged, shards)
    assert np.array_equal(tree.parent, ref.parent)


def test_manifest_round_trip_and_corruption(graph, edge_file, tmp_path):
    out = tmp_path / "m"
    result = scatter_edge_list(edge_file, 2, out, method="hash")
    manifest = json.loads(
        (out / "shard_0000.manifest.json").read_text()
    )
    assert manifest == result.manifests[0]
    assert manifest["format"] == "repro-dist-shard/1"
    # Corrupt one sidecar: load must refuse rather than build wrong.
    sidecar = out / "shard_0000.edges.i64"
    data = bytearray(sidecar.read_bytes())
    data[0] ^= 0xFF
    sidecar.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="fingerprint"):
        load_shards(out)


def test_truncated_sidecar_rejected(graph, edge_file, tmp_path):
    out = tmp_path / "t"
    scatter_edge_list(edge_file, 2, out, method="hash")
    sidecar = out / "shard_0001.edges.i64"
    sidecar.write_bytes(sidecar.read_bytes()[:-16])
    with pytest.raises(ValueError, match="edges"):
        load_shards(out)


def test_load_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_shards(tmp_path / "nothing")


def test_rejects_bad_arguments(edge_file, tmp_path):
    with pytest.raises(ValueError):
        scatter_edge_list(edge_file, 0, tmp_path / "x")
    with pytest.raises(ValueError):
        scatter_edge_list(edge_file, 2, tmp_path / "x", method="metis")
    with pytest.raises(ValueError):
        scatter_edge_list(edge_file, 2, tmp_path / "x", max_buffer_bytes=0)


def test_range_scatter_is_not_dedup_safe(tmp_path):
    """Duplicate copies of an edge can straddle a range boundary, so
    range-scattered shards must refuse the per-shard degree merge;
    hash routes copies together and stays mergeable."""
    path = tmp_path / "dup.txt"
    path.write_text("0 1\n1 2\n0 1\n2 3\n")  # (0,1) twice
    by_range = scatter_edge_list(
        path, 2, tmp_path / "r", method="range", chunk_edges=2
    ).load()
    assert all(not s.dedup_safe for s in by_range)
    assert merged_field("degree", by_range) is None
    by_hash = scatter_edge_list(
        path, 2, tmp_path / "h", method="hash", chunk_edges=2
    ).load()
    assert all(s.dedup_safe for s in by_hash)
    merged = merged_field("degree", by_hash)
    assert merged.tolist() == [1.0, 2.0, 2.0, 1.0]


def test_missing_fragment_raises_typed_integrity_error(edge_file, tmp_path):
    out = tmp_path / "missing"
    scatter_edge_list(edge_file, 2, out, method="hash")
    (out / "shard_0001.edges.i64").unlink()
    with pytest.raises(ShardIntegrityError, match="missing") as excinfo:
        load_shards(out)
    assert excinfo.value.bad_shards == (1,)
    # The typed error still subclasses ValueError for legacy callers.
    assert isinstance(excinfo.value, ValueError)


def test_bad_sha256_quarantines_the_sidecar(edge_file, tmp_path):
    out = tmp_path / "sha"
    scatter_edge_list(edge_file, 2, out, method="hash")
    sidecar = out / "shard_0000.edges.i64"
    data = bytearray(sidecar.read_bytes())
    data[-1] ^= 0xFF  # edge count intact, fingerprint wrong
    sidecar.write_bytes(bytes(data))
    with pytest.raises(ShardIntegrityError, match="fingerprint") as excinfo:
        load_shards(out)
    assert 0 in excinfo.value.bad_shards
    # The damaged bytes are moved aside, not left to trip the next load.
    assert not sidecar.exists()
    assert sidecar.with_name(sidecar.name + ".quarantined").exists()
    with pytest.raises(ShardIntegrityError, match="missing"):
        load_shards(out)  # now a missing fragment, not the same bytes


def test_every_damaged_shard_is_reported(edge_file, tmp_path):
    out = tmp_path / "both"
    scatter_edge_list(edge_file, 2, out, method="hash")
    (out / "shard_0000.edges.i64").unlink()
    other = out / "shard_0001.edges.i64"
    other.write_bytes(other.read_bytes()[:-8])  # half an edge: truncated
    with pytest.raises(ShardIntegrityError) as excinfo:
        load_shards(out)
    assert sorted(excinfo.value.bad_shards) == [0, 1]


def test_explicit_n_vertices_and_isolated_tail(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("# tiny\n0 1\n1 2\n")
    result = scatter_edge_list(path, 2, tmp_path / "s", n_vertices=6)
    shards = result.load()
    assert all(s.n_vertices == 6 for s in shards)
    with pytest.raises(ValueError):
        scatter_edge_list(path, 2, tmp_path / "s2", n_vertices=2)
