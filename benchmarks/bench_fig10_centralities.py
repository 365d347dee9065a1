"""Fig 10 / §III-C: comparing degree and betweenness centrality.

Regenerates: the Global Correlation Index of the Astro network
(paper: 0.89, strongly positive), the outlier-score terrain coloured by
degree (high peaks should be blue, i.e. low degree), and the 2-hop
neighbourhood drill-downs of two selected outlier vertices, which
should look like bridges connecting multiple communities.
"""

import os

import numpy as np

from repro.baselines import draw_graph_svg, spring_layout
from repro.core import (
    ScalarGraph,
    build_super_tree,
    build_vertex_tree,
    global_correlation_index,
    outlier_score,
)
from repro.graph import datasets, generators
from repro.measures import betweenness_centrality, degree_centrality
from repro.measures.centrality import harmonic_centrality
from repro.terrain import highest_peaks, render_terrain

from conftest import OUT_DIR, best_of
from oracles import oracle_harmonic

_TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")


def _fields():
    g = datasets.load("astro").graph
    deg = degree_centrality(g, normalized=False)
    bet = betweenness_centrality(g, samples=256, seed=0)
    return g, deg, bet


def test_fig10a_outlier_terrain(benchmark, report):
    g, deg, bet = _fields()
    gci = global_correlation_index(g, deg, bet)
    scores = outlier_score(g, deg, bet)
    sg = ScalarGraph(g, scores)
    tree = build_super_tree(build_vertex_tree(sg))

    def render():
        return render_terrain(
            tree, color_values=deg,
            resolution=140, width=560, height=420,
            path=OUT_DIR / "fig10a_outlier_terrain.png",
        )

    benchmark.pedantic(render, rounds=1, iterations=1)

    peaks = highest_peaks(tree, count=5)
    peak_deg = [float(deg[p.items].mean()) for p in peaks]
    lines = [
        f"GCI(degree, betweenness) = {gci:.3f}  (paper: 0.89)",
        f"median degree overall: {np.median(deg):.1f}",
        "top outlier peaks (mean degree — blue = low):",
    ]
    for p, d in zip(peaks, peak_deg):
        lines.append(f"  outlier_score >= {p.alpha:.2f}: mean degree {d:.1f}")
    assert gci > 0.5
    assert np.median(peak_deg) < np.median(deg)
    report("fig10a_outlier_terrain", "\n".join(lines))


def test_accel_harmonic_speedup(report):
    """Vector harmonic centrality vs its loop oracle on a ≥5e4-vertex
    graph.

    The floor: the frontier-at-a-time CSR BFS must
    beat the per-source ``deque`` BFS oracle (the ``naive`` column) ≥5×
    at 5e4+ vertices.  The full all-pairs run is measured through a
    fixed source sample — the per-source kernel is what differs, and
    the oracle's all-pairs pass would take tens of minutes at this
    size — and both must produce byte-identical values on those
    sources.  Tiny mode keeps the cross-check, skips the timing
    assertion.
    """
    n, m, n_sources = (500, 1_500, 8) if _TINY else (50_000, 150_000, 16)
    graph = generators.erdos_renyi(n, m, seed=2)
    sources = list(range(0, n, n // n_sources))[:n_sources]

    naive_vals = oracle_harmonic(graph, sources=sources)
    vector_vals = harmonic_centrality(graph, sources=sources)
    assert np.array_equal(naive_vals, vector_vals)

    t_naive = best_of(
        lambda: oracle_harmonic(graph, sources=sources), rounds=2
    )
    t_vector = best_of(
        lambda: harmonic_centrality(graph, sources=sources), rounds=3
    )
    speedup = t_naive / t_vector
    report(
        "accel_harmonic_speedup",
        f"harmonic centrality, G(n={n}, m={m}), {len(sources)} sources:\n"
        f"  naive  {t_naive * 1e3:8.1f} ms\n"
        f"  vector {t_vector * 1e3:8.1f} ms   ({speedup:.1f}x)",
    )
    if not _TINY:
        assert speedup >= 5.0, (
            f"vector harmonic only {speedup:.2f}x faster than naive at "
            f"{n} vertices (floor: 5x)"
        )


def test_fig10bc_bridge_drilldown(benchmark, report):
    """Drill into two outlier peaks: their 2-hop neighbourhoods should
    be bridge-like (their removal disconnects the neighbourhood)."""
    g, deg, bet = _fields()
    scores = outlier_score(g, deg, bet)
    ds = datasets.load("astro")
    bridges = ds.planted["bridges"]
    # Pick the two planted bridges with the highest outlier score —
    # the paper picked two salient peaks by hand.
    chosen = bridges[np.argsort(-scores[bridges])[:2]]

    def drill():
        results = []
        for i, v in enumerate(chosen):
            hood = {int(v)}
            for u in g.neighbors(int(v)):
                hood.add(int(u))
                hood.update(int(w) for w in g.neighbors(int(u)))
            sub = g.subgraph(sorted(hood))
            pos = spring_layout(sub, iterations=60, seed=0)
            draw_graph_svg(
                sub, pos, values=deg[sorted(hood)],
                path=OUT_DIR / f"fig10_{'bc'[i]}_neighborhood.svg",
            )
            # Bridge test: removing v disconnects its 2-hop hood.
            rest = sorted(hood - {int(v)})
            results.append(g.subgraph(rest).n_components())
        return results

    components_after_removal = benchmark.pedantic(
        drill, rounds=1, iterations=1
    )
    lines = [
        f"outlier vertex {v}: degree {int(deg[v])}, "
        f"2-hop hood splits into {c} parts without it"
        for v, c in zip(chosen, components_after_removal)
    ]
    assert all(c >= 2 for c in components_after_removal)
    report("fig10bc_bridges", "\n".join(lines))
