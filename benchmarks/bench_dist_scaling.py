"""Out-of-core scatter: the memory bound and the identical rebuild.

``repro dist-build --scatter-dir`` streams an on-disk edge list into
per-shard fragments; scattering must respect the configured buffer
budget — peak buffered bytes never exceed ``max_buffer_bytes`` by more
than one parse chunk.  The shards are then read back, the ``degree``
field is summed from per-shard contributions, and the tree built from
the shards is cross-checked against a fresh single-process
``build_vertex_tree`` — identity is asserted on every run, tiny or not.

The graph is deliberately *dense* (a 4e5-edge G(n, m), average degree
~100), so the scatter streams many chunks through a budget far smaller
than the edge array.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.core import ScalarGraph, build_vertex_tree
from repro.dist import build_tree, merged_field, scatter_edge_list
from repro.graph import generators
from repro.graph.io import write_edge_list

_TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")
_N, _M = (400, 4_000) if _TINY else (8_000, 400_000)
_SEED = 29
_CHUNK_EDGES = 4096 if _TINY else 65536


def _field() -> ScalarGraph:
    graph = generators.erdos_renyi(_N, _M, seed=_SEED)
    assert _TINY or graph.n_edges >= 100_000, \
        "out-of-core benchmark needs a >=1e5-edge graph"
    return ScalarGraph(
        graph, graph.degree().astype(np.float64)
    )


def test_oocore_memory_bound(report, tmp_path: Path):
    field = _field()
    graph, scalars = field.graph, field.scalars
    edge_file = tmp_path / "graph.txt"
    write_edge_list(graph, edge_file)
    budget = 256 * 1024 if _TINY else 1 << 20

    result = scatter_edge_list(
        edge_file, 4, tmp_path / "shards", method="hash",
        chunk_edges=_CHUNK_EDGES, max_buffer_bytes=budget,
    )
    peak = result.stats["peak_buffered_bytes"]
    bound = max(budget, _CHUNK_EDGES * 2 * 8)  # one chunk when budget < chunk
    assert peak <= bound, (
        f"scatter buffered {peak} bytes; bound is "
        f"max(budget={budget}, one chunk) = {bound} — the out-of-core "
        "memory bound is broken"
    )

    shards = result.load()
    merged = merged_field("degree", shards)
    assert np.array_equal(merged, scalars)
    tree, __ = build_tree(merged, shards)
    ref = build_vertex_tree(field)
    assert np.array_equal(tree.parent, ref.parent)

    report(
        "dist_oocore_bound",
        f"scattered {result.stats['n_edges']} edges in "
        f"{result.stats['chunks']} chunks, {result.stats['flushes']} "
        f"flushes: peak buffer {peak} B <= bound {bound} B; rebuilt "
        "tree identical to in-memory single-process build",
    )
