"""repro — Analyzing and Visualizing Scalar Fields on Graphs.

A from-scratch reproduction of Zhang, Wang & Parthasarathy (ICDE 2017,
arXiv:1702.03825): scalar graphs, (super) scalar trees over maximal
α-connected components, terrain-metaphor visualization, multi-field
correlation analysis, comparison baselines, and a simulated user study.

Quickstart::

    from repro import (
        ScalarGraph, build_vertex_tree, build_super_tree, render_terrain,
    )
    from repro.graph import datasets
    from repro.measures import core_numbers

    graph = datasets.load("grqc").graph
    field = ScalarGraph(graph, core_numbers(graph).astype(float))
    tree = build_super_tree(build_vertex_tree(field))
    render_terrain(tree, path="grqc_kcore.png")

Subpackages
-----------
``repro.core``
    The paper's contribution: scalar graphs, Algorithms 1–3, super
    trees, α-components, simplification, LCI/GCI.
``repro.graph``
    CSR graph substrate, builders, I/O, generators, dataset registry.
``repro.measures``
    K-core, K-truss, triangles, centralities, communities, roles.
``repro.terrain``
    Nested-disc layout, heightfield, software 3D renderer, treemap,
    peak queries, linked selection.
``repro.baselines``
    Spring layout, LaNet-vi, OpenOrd, CSV plot.
``repro.query``
    Nearest-neighbour graphs over query results (Fig 11).
``repro.study``
    Simulated user study regenerating Tables IV–VI.
``repro.stream``
    Dynamic scalar fields: :class:`~repro.stream.delta.DeltaGraph`
    overlay on the immutable CSR substrate, typed edit events with a
    JSONL log format, incremental scalar-tree maintenance
    (:class:`~repro.stream.incremental.StreamingScalarTree` — checkpoint
    rollback + dirty-suffix replay for callers that hold only an edit
    delta), and sliding-window expiry of edits.  Replayed from the CLI
    via ``repro stream``.
``repro.evolve``
    Windowed terrain evolution over timestamped edge logs (``repro
    evolve``): every window's terrain built from scratch from its own
    edge set, peaks tracked across windows into lifecycle events, and
    signed terrain-diff tiles between windows.
``repro.engine``
    The unified pipeline layer every driver runs through: a measure
    registry (named scalar fields with kind/cost metadata and lazy
    imports), a content-hash-keyed artifact cache, and the staged
    :class:`~repro.engine.pipeline.Pipeline` /
    :class:`~repro.engine.pipeline.StreamingPipeline`
    (source → field → tree → super/simplified tree → layout → sink).
``repro.serve``
    The concurrent terrain tile/query server (``repro serve``): a
    stdlib-only asyncio HTTP service that rasterizes each (dataset,
    measure, bins) once into an LOD pyramid of cached levels, serves
    content-hash-ETagged :class:`~repro.terrain.heightfield.Tile` crops
    of them, with peak/hit-test/treemap/profile endpoints, per-key
    request coalescing over a bounded worker pool, and SSE replay of
    edit logs with dirty-tile invalidations.
``repro.accel``
    Vectorized compute kernels for the hot stages — tree construction,
    traversal measures, k-core peeling, layout relaxation,
    rasterization; C kernels for the merge scans, the k-truss peel,
    the super tree and the renderer's z-buffer — equivalence-tested
    against the per-item loops they replaced.  ``REPRO_ACCEL=vector``
    keeps the C kernels off.
"""

from .core import (
    EdgeScalarGraph,
    ScalarGraph,
    ScalarTree,
    SuperTree,
    build_edge_tree,
    build_edge_tree_naive,
    build_super_tree,
    build_vertex_tree,
    global_correlation_index,
    local_correlation_index,
    maximal_alpha_components,
    maximal_alpha_edge_components,
    mcc,
    outlier_score,
    simplify_tree,
)
from .terrain import (
    Camera,
    highest_peaks,
    layout_tree,
    peaks_at,
    rasterize,
    render_terrain,
    treemap_svg,
)
from .engine import ArtifactCache, Pipeline, StreamingPipeline

__version__ = "1.2.0"

__all__ = [
    "ScalarGraph",
    "EdgeScalarGraph",
    "ScalarTree",
    "SuperTree",
    "build_vertex_tree",
    "build_edge_tree",
    "build_edge_tree_naive",
    "build_super_tree",
    "simplify_tree",
    "maximal_alpha_components",
    "maximal_alpha_edge_components",
    "mcc",
    "local_correlation_index",
    "global_correlation_index",
    "outlier_score",
    "Camera",
    "layout_tree",
    "rasterize",
    "render_terrain",
    "treemap_svg",
    "peaks_at",
    "highest_peaks",
    "Pipeline",
    "StreamingPipeline",
    "ArtifactCache",
    "__version__",
]
