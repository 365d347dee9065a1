"""CSV (Cohesive Subgraph Visualization) density plot [1].

The database-community baseline the paper contrasts with for K-truss
visualization (Fig 6(g)): vertices (or edges) are arranged along the
x-axis in a cohesion-aware order and the y-axis plots the cohesion
measure, giving a 1-D "skyline" whose plateaus are cohesive subgraphs.
The plot shows *that* dense subgraphs exist and how large they are but —
as the paper argues — not their hierarchical containment.

We implement the CSV ordering as a max-cohesion greedy traversal: start
from the highest-valued element and repeatedly append the neighbouring
element of highest value, falling back to the global maximum when the
frontier empties.
"""

from __future__ import annotations

from heapq import heappop, heappush
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..graph.csr import CSRGraph
from ..terrain.svg import SVGCanvas
from ..terrain.colormap import intensity_ramp

__all__ = ["csv_order", "csv_plot_svg"]


def csv_order(graph: CSRGraph, values: np.ndarray) -> np.ndarray:
    """Cohesion-aware vertex order for the CSV curve.

    Greedy best-neighbour traversal: visit the globally best unvisited
    vertex, then repeatedly pop the best value adjacent to the visited
    set.  Plateaus of high-value, interconnected vertices end up
    contiguous on the x-axis.
    """
    values = np.asarray(values, dtype=np.float64)
    n = graph.n_vertices
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    heap: list = []
    remaining = np.argsort(-values, kind="stable").tolist()
    cursor = 0
    for slot in range(n):
        while heap and visited[heap[0][1]]:
            heappop(heap)
        if heap:
            __, v = heappop(heap)
        else:
            while cursor < n and visited[remaining[cursor]]:
                cursor += 1
            v = remaining[cursor]
        visited[v] = True
        order[slot] = v
        for w in graph.neighbors(int(v)):
            if not visited[w]:
                heappush(heap, (-values[w], int(w)))
    return order


def csv_plot_svg(
    graph: CSRGraph,
    values: np.ndarray,
    width: int = 720,
    height: int = 280,
    path: Optional[Union[str, Path]] = None,
) -> str:
    """The CSV skyline as SVG: x = CSV order, y = cohesion value."""
    values = np.asarray(values, dtype=np.float64)
    order = csv_order(graph, values)
    series = values[order]
    lo, hi = float(series.min()), float(series.max())
    span = hi - lo if hi > lo else 1.0
    margin = 24.0
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin
    n = len(series)
    xs = margin + np.arange(n) / max(n - 1, 1) * plot_w
    ys = margin + (1.0 - (series - lo) / span) * plot_h
    colors = intensity_ramp(series)

    canvas = SVGCanvas(width, height)
    canvas.line(margin, height - margin, width - margin, height - margin,
                stroke=(0.2, 0.2, 0.2))
    canvas.line(margin, margin, margin, height - margin,
                stroke=(0.2, 0.2, 0.2))
    # Bars (coloured skyline) beat a polyline at showing plateaus.
    bar_w = max(plot_w / max(n, 1), 0.5)
    base_y = height - margin
    for i in range(n):
        canvas.rect(xs[i] - bar_w / 2, ys[i], bar_w, base_y - ys[i],
                    fill=tuple(colors[i]))
    canvas.text(width / 2, height - 4, "CSV order", size=11, anchor="middle")
    canvas.text(8, margin - 8, f"max={hi:g}", size=11)
    if path is not None:
        canvas.save(path)
    return canvas.to_string()
