"""Fig 7: K-core and K-truss terrains of the million-scale graphs.

Our Wikipedia / Cit-Patent stand-ins are scaled to laptop-Python size
(≈160k edges each) but exercise the identical code paths.  Regenerates
the four terrains plus the drill-downs of Figs 7(e)/(f): the densest
K-truss and densest K-core extracted from the top peak.
"""

from repro.graph import datasets
from repro.terrain import highest_peaks, layout_tree, render_terrain
from repro.baselines import draw_graph_svg, spring_layout

from conftest import OUT_DIR


def test_fig7_terrains(benchmark, report, kcore_super_tree, ktruss_super_tree):
    lines = []
    pairs = []
    for name in ("wikipedia", "cit_patent"):
        pairs.append((name, "kcore", kcore_super_tree(name)))
        pairs.append((name, "ktruss", ktruss_super_tree(name)))

    def render_all():
        for name, kind, tree in pairs:
            render_terrain(
                tree, resolution=160, width=560, height=420,
                path=OUT_DIR / f"fig7_{name}_{kind}.png",
            )

    benchmark.pedantic(render_all, rounds=1, iterations=1)

    for name, kind, tree in pairs:
        top = highest_peaks(tree, count=1)[0]
        unit = "vertices" if kind == "kcore" else "edges"
        lines.append(
            f"{name} {kind}: densest K = {top.alpha:.0f} "
            f"({top.size} {unit})"
        )
    report("fig7_large_graphs", "\n".join(lines))


def test_fig7e_densest_truss_detail(benchmark, report, ktruss_super_tree):
    """Fig 7(e): drill into the highest K-truss peak of Wikipedia."""
    tree = ktruss_super_tree("wikipedia")
    field_graph = datasets.load("wikipedia").graph
    top = highest_peaks(tree, count=1)[0]
    pairs = field_graph.edge_array()[top.items]
    vertices = sorted(set(pairs.ravel().tolist()))

    def drill():
        sub = field_graph.subgraph(vertices)
        pos = spring_layout(sub, iterations=60, seed=0)
        draw_graph_svg(sub, pos, path=OUT_DIR / "fig7e_densest_truss.svg")
        return sub

    sub = benchmark(drill)
    report(
        "fig7e_densest_truss",
        f"densest K-truss of Wikipedia stand-in: K = {top.alpha:.0f}, "
        f"{len(vertices)} vertices / {top.size} edges "
        f"(paper: K = 86 on real Wikipedia)",
    )


def test_fig7f_densest_core_detail(benchmark, report, kcore_super_tree):
    """Fig 7(f): drill into the highest K-core peak of Cit-Patent."""
    tree = kcore_super_tree("cit_patent")
    graph = datasets.load("cit_patent").graph
    top = highest_peaks(tree, count=1)[0]

    def drill():
        sub = graph.subgraph(top.items.tolist())
        pos = spring_layout(sub, iterations=60, seed=0)
        draw_graph_svg(sub, pos, path=OUT_DIR / "fig7f_densest_core.svg")
        return sub

    sub = benchmark(drill)
    # A densest K-core at level K has minimum internal degree K.
    assert sub.degree().min() >= top.alpha
    report(
        "fig7f_densest_core",
        f"densest K-core of Cit-Patent stand-in: K = {top.alpha:.0f}, "
        f"{top.size} vertices (paper: K = 64 on real Cit-Patent)",
    )
