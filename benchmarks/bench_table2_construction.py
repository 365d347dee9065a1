"""Table II: terrain visualization time cost.

For each (dataset, scalar) pair the paper reports the super-tree size
``Nt``, construction time ``tc`` (Algorithm 1 or 3 plus Algorithm 2),
naive edge-tree time ``te`` (dual-graph method), and visualization time
``tv``.  We regenerate the same rows on the stand-ins.  The expected
*shape*: tc ≪ te on edge fields (the paper reports >300× on Wikipedia;
the gap grows with degree skew), Nt orders of magnitude below |V| or
|E|, and tv dominated by rendering, not tree construction.

``te`` is measured only where the dual graph fits the time budget —
exactly the paper's point about the naive method.
"""

import os
import time

import numpy as np
import pytest

from repro import accel
from repro.core import (
    EdgeScalarGraph,
    ScalarGraph,
    build_edge_tree,
    build_edge_tree_naive,
    build_super_tree,
    build_vertex_tree,
)
from repro.graph import generators
from repro.terrain import layout_tree, rasterize, render_terrain

from conftest import best_of
from oracles import oracle_edge_tree, oracle_vertex_tree

_TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")

# (dataset, measure kind, run naive te?)
_ROWS = [
    ("grqc", "kcore", True),
    ("grqc", "ktruss", True),
    ("wikivote", "kcore", True),
    ("wikivote", "ktruss", True),
    ("wikipedia", "kcore", False),
    ("wikipedia", "ktruss", False),
    ("cit_patent", "kcore", False),
    ("cit_patent", "ktruss", False),
]


def _build(kind, field):
    if kind == "kcore":
        return build_super_tree(build_vertex_tree(field))
    return build_super_tree(build_edge_tree(field))


def test_table2_full(benchmark, report, kcore_field, ktruss_field):
    def build_table():
        lines = [
            f"{'dataset':<12}{'scalar':<8}{'Nt':>8}{'tc(s)':>10}"
            f"{'te(s)':>10}{'tv(s)':>8}"
        ]
        for name, kind, run_naive in _ROWS:
            field = (
                kcore_field(name) if kind == "kcore" else ktruss_field(name)
            )
            t0 = time.perf_counter()
            tree = _build(kind, field)
            tc = time.perf_counter() - t0

            te = float("nan")
            if kind == "ktruss" and run_naive:
                t0 = time.perf_counter()
                build_super_tree(build_edge_tree_naive(field))
                te = time.perf_counter() - t0

            t0 = time.perf_counter()
            render_terrain(tree, resolution=120, width=480, height=360)
            tv = time.perf_counter() - t0

            scalar = "KC(v)" if kind == "kcore" else "KT(e)"
            te_text = f"{te:>10.3f}" if te == te else f"{'-':>10}"
            lines.append(
                f"{name:<12}{scalar:<8}{tree.n_nodes:>8}{tc:>10.4f}"
                f"{te_text}{tv:>8.2f}"
            )
        return "\n".join(lines)

    table = benchmark.pedantic(build_table, rounds=1, iterations=1)
    report("table2_construction", table)


@pytest.mark.parametrize("name", ["grqc", "wikivote"])
def test_bench_vertex_tree_construction(benchmark, kcore_field, name):
    """tc for KC(v): Algorithm 1 + Algorithm 2."""
    field = kcore_field(name)
    benchmark(lambda: build_super_tree(build_vertex_tree(field)))


@pytest.mark.parametrize("name", ["grqc", "wikivote"])
def test_bench_edge_tree_optimized(benchmark, ktruss_field, name):
    """tc for KT(e): Algorithm 3 + Algorithm 2."""
    field = ktruss_field(name)
    benchmark(lambda: build_super_tree(build_edge_tree(field)))


@pytest.mark.parametrize("name", ["grqc", "wikivote"])
def test_bench_edge_tree_naive(benchmark, ktruss_field, name):
    """te: the dual-graph baseline the paper beats by >300×."""
    field = ktruss_field(name)
    benchmark.pedantic(
        lambda: build_super_tree(build_edge_tree_naive(field)),
        rounds=3, iterations=1,
    )


def test_bench_large_vertex_tree(benchmark, kcore_field):
    """tc at scale: Wikipedia stand-in KC tree."""
    field = kcore_field("wikipedia")
    benchmark.pedantic(
        lambda: build_super_tree(build_vertex_tree(field)),
        rounds=3, iterations=1,
    )


def test_bench_large_edge_tree(benchmark, ktruss_field):
    """tc at scale: Wikipedia stand-in KT edge tree."""
    field = ktruss_field("wikipedia")
    benchmark.pedantic(
        lambda: build_super_tree(build_edge_tree(field)),
        rounds=3, iterations=1,
    )


def _on(tier, fn, *args):
    """``fn(*args)`` with the accel tier pinned to ``tier``."""
    with accel.using(tier):
        return fn(*args)


def test_accel_tree_construction_speedup(report):
    """Loop oracle vs vector vs native Algorithm 1/3 on a ≥1e5-edge graph.

    The floors: at 1e5+ edges the edge-ordered merge-scan kernel must
    build the vertex scalar tree ≥2× faster than the adjacency-walk
    oracle (the ``naive`` columns), and the self-compiled C scan must be
    ≥10× over the oracle and ≥4× over vector — with identical parents
    across all three.  Tiny mode
    keeps the equivalence cross-checks but skips the timing assertions
    (small graphs don't amortize the presort), and the native floors
    are additionally host-gated on a working toolchain.
    """
    from repro.accel import native as accel_native

    n, m = (1_000, 2_000) if _TINY else (60_000, 200_000)
    graph = generators.erdos_renyi(n, m, seed=1)
    rng = np.random.default_rng(1)
    field = ScalarGraph(graph, rng.uniform(0.0, 1.0, graph.n_vertices))
    edge_field = EdgeScalarGraph(graph, rng.uniform(0.0, 1.0, graph.n_edges))
    have_native = accel_native.available()

    naive_parent = oracle_vertex_tree(field).parent
    assert np.array_equal(
        naive_parent, _on("vector", build_vertex_tree, field).parent
    )
    naive_eparent = oracle_edge_tree(edge_field).parent
    assert np.array_equal(
        naive_eparent, _on("vector", build_edge_tree, edge_field).parent
    )
    if have_native:
        assert np.array_equal(
            naive_parent, _on("native", build_vertex_tree, field).parent
        )
        assert np.array_equal(
            naive_eparent, _on("native", build_edge_tree, edge_field).parent
        )

    # The faster the tier, the more min-of-k rounds it takes for the
    # minimum to converge on the true cost (a single GC pause is a large
    # fraction of a ~10 ms native build, negligible against the oracle).
    t_naive = best_of(lambda: oracle_vertex_tree(field))
    t_vector = best_of(
        lambda: _on("vector", build_vertex_tree, field), rounds=5
    )
    te_naive = best_of(lambda: oracle_edge_tree(edge_field))
    te_vector = best_of(
        lambda: _on("vector", build_edge_tree, edge_field), rounds=5
    )
    t_native = te_native = float("nan")
    if have_native:
        t_native = best_of(
            lambda: _on("native", build_vertex_tree, field), rounds=9
        )
        te_native = best_of(
            lambda: _on("native", build_edge_tree, edge_field), rounds=9
        )
    speedup = t_naive / t_vector
    e_speedup = te_naive / te_vector
    nat_speedup = t_naive / t_native if have_native else float("nan")
    nat_over_vector = t_vector / t_native if have_native else float("nan")
    e_nat_speedup = te_naive / te_native if have_native else float("nan")

    def _ms(t):
        return f"{t * 1e3:8.1f} ms" if t == t else f"{'-':>8}   "

    report(
        "accel_tree_speedup",
        f"scalar-tree construction, G(n={n}, m={m}):\n"
        f"  vertex tree (Alg 1): naive {t_naive * 1e3:8.1f} ms   "
        f"vector {t_vector * 1e3:8.1f} ms ({speedup:4.1f}x)   "
        f"native {_ms(t_native)} ({nat_speedup:4.1f}x naive, "
        f"{nat_over_vector:4.1f}x vector)\n"
        f"  edge tree   (Alg 3): naive {te_naive * 1e3:8.1f} ms   "
        f"vector {te_vector * 1e3:8.1f} ms ({e_speedup:4.1f}x)   "
        f"native {_ms(te_native)} ({e_nat_speedup:4.1f}x naive)",
    )
    if not _TINY:
        assert speedup >= 2.0, (
            f"vector tree build only {speedup:.2f}x faster than naive at "
            f"{m} edges (floor: 2x)"
        )
        if have_native:
            assert nat_speedup >= 10.0, (
                f"native tree build only {nat_speedup:.2f}x faster than "
                f"naive at {m} edges (floor: 10x)"
            )
            assert nat_over_vector >= 4.0, (
                f"native tree build only {nat_over_vector:.2f}x faster "
                f"than vector at {m} edges (floor: 4x)"
            )


def test_paper_scale_ktruss(report):
    """KT(e) plus Algorithm 3 at the paper's Table 2 scale.

    A generated 1e6-edge ``powerlaw_cluster(200000, 5, 0.3)`` graph
    stands in for the paper's million-edge datasets.  Both k-truss
    tiers start from the same array supports; the dict-adjacency peel
    (the ``vector`` tier) and the compiled bin-sort peel (``native``)
    must return identical truss numbers, and the native call must be
    ≥4× faster end to end.  Tiny mode runs a 1e4-edge graph and skips the floor,
    which is also gated on a working toolchain.
    """
    from repro.accel import native as accel_native
    from repro.measures import truss_numbers

    n = 2_000 if _TINY else 200_000
    graph = generators.powerlaw_cluster(n, 5, 0.3, seed=1)
    have_native = accel_native.available()

    t0 = time.perf_counter()
    kt = _on("vector", truss_numbers, graph)
    t_dict = time.perf_counter() - t0
    t_native = float("nan")
    if have_native:
        assert np.array_equal(kt, _on("native", truss_numbers, graph))
        t_native = best_of(lambda: _on("native", truss_numbers, graph))
    field = EdgeScalarGraph(graph, kt.astype(np.float64))
    t_tree = best_of(lambda: build_super_tree(build_edge_tree(field)))
    speedup = t_dict / t_native if have_native else float("nan")
    native_text = (
        f"{t_native:8.3f} s ({speedup:4.1f}x)" if have_native
        else f"{'-':>8}   (no toolchain)"
    )
    report(
        "table2_paper_scale",
        f"k-truss + edge tree, powerlaw_cluster(n={n}, 5, 0.3): "
        f"{graph.n_edges} edges, max KT {int(kt.max())}\n"
        f"  truss_numbers: dict peel {t_dict:8.3f} s   "
        f"native {native_text}\n"
        f"  build_edge_tree + super tree: {t_tree:8.3f} s",
    )
    if not _TINY and have_native:
        assert speedup >= 4.0, (
            f"native k-truss only {speedup:.2f}x faster than the dict "
            f"peel at {graph.n_edges} edges (floor: 4x)"
        )


def test_bench_render_tv(benchmark, kcore_super_tree):
    """tv: layout + rasterize + software render of the GrQc terrain."""
    tree = kcore_super_tree("grqc")

    def render():
        layout = layout_tree(tree)
        hf = rasterize(layout, resolution=120)
        render_terrain(
            tree, layout=layout, heightfield=hf, width=480, height=360
        )

    benchmark.pedantic(render, rounds=3, iterations=1)
