"""Ablation C: union-find path compression on/off, plus the native tier.

Algorithm 1's near-linear bound rests on the O(α(n)) amortised
union-find.  We rebuild the vertex scalar tree with the naive
(uncompressed) structure swapped in and report the slowdown — and,
since PR 7, with the self-compiled C merge scan swapped in
(:mod:`repro.accel.native`), which keeps the same union-find but
removes the interpreter from the loop entirely.
"""

import time

import numpy as np
import pytest

from repro import accel
from repro.accel import native as accel_native
from repro.core import NaiveUnionFind, ScalarGraph, UnionFind
from repro.core.scalar_tree import ScalarTree, build_vertex_tree


def _build_tree_with(uf_cls, scalar_graph):
    """Algorithm 1 with a pluggable union-find implementation."""
    graph = scalar_graph.graph
    n = graph.n_vertices
    scalars = scalar_graph.scalars
    order = np.lexsort((np.arange(n), -scalars))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    parent = [-1] * n
    uf = uf_cls(n)
    tree_root = list(range(n))
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    rank_list = rank.tolist()
    for v in order.tolist():
        rank_v = rank_list[v]
        for pos in range(indptr[v], indptr[v + 1]):
            w = indices[pos]
            if rank_list[w] < rank_v:
                root_v, root_w = uf.find(v), uf.find(w)
                if root_v != root_w:
                    parent[tree_root[root_w]] = v
                    merged = uf.union(root_v, root_w)
                    tree_root[merged] = v
    return ScalarTree(np.array(parent), scalars.copy())


def test_ablation_compression(benchmark, report, kcore_field):
    field = kcore_field("wikipedia")
    have_native = accel_native.available()

    def compare():
        t0 = time.perf_counter()
        fast_tree = _build_tree_with(UnionFind, field)
        fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        naive_tree = _build_tree_with(NaiveUnionFind, field)
        naive = time.perf_counter() - t0
        assert np.array_equal(fast_tree.parent, naive_tree.parent)
        native = float("nan")
        if have_native:
            with accel.using("native"):
                t0 = time.perf_counter()
                native_tree = build_vertex_tree(field)
                native = time.perf_counter() - t0
            assert np.array_equal(fast_tree.parent, native_tree.parent)
        return fast, naive, native

    fast, naive, native = benchmark.pedantic(compare, rounds=1, iterations=1)
    native_text = (
        f"native C merge scan:      {native:.3f}s "
        f"({fast / native:.1f}x over compressed Python)"
        if have_native else
        "native C merge scan:      unavailable (no toolchain)"
    )
    report(
        "ablation_union_find",
        f"Algorithm 1 on Wikipedia stand-in "
        f"({field.n_vertices} vertices, {field.n_edges} edges)\n"
        f"with path compression:    {fast:.3f}s\n"
        f"without path compression: {naive:.3f}s\n"
        f"slowdown: {naive / fast:.1f}x\n" + native_text,
    )


def test_bench_compressed(benchmark, kcore_field):
    field = kcore_field("grqc")
    benchmark(lambda: _build_tree_with(UnionFind, field))


def test_bench_uncompressed(benchmark, kcore_field):
    field = kcore_field("grqc")
    benchmark(lambda: _build_tree_with(NaiveUnionFind, field))


@pytest.mark.skipif(
    not accel_native.available(), reason="no C compiler on this host"
)
def test_bench_native(benchmark, kcore_field):
    field = kcore_field("grqc")
    with accel.using("native"):
        benchmark(lambda: build_vertex_tree(field))
