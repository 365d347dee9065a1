"""Fruchterman–Reingold spring layout [31].

The paper's point of comparison for "traditional" node-link drawing
(Figs 6(a)/(b)) and the renderer behind the linked-2D-display callback
(drawing a selected terrain region as a node-link diagram).  Vectorised
with numpy; for large graphs the quadratic repulsion term is estimated
from a seeded vertex sample.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..graph.csr import CSRGraph
from ..terrain.colormap import intensity_ramp
from ..terrain.svg import SVGCanvas

__all__ = ["spring_layout", "draw_graph_svg"]


def spring_layout(
    graph: CSRGraph,
    iterations: int = 80,
    seed: int = 0,
    sample_threshold: int = 1500,
    repulsion_samples: int = 400,
) -> np.ndarray:
    """Force-directed positions, one (x, y) row per vertex, in [0, 1]².

    Classic FR: repulsion k²/d between all pairs, attraction d²/k along
    edges, linearly cooling displacement cap.  Above
    ``sample_threshold`` vertices, repulsion per vertex is estimated
    against ``repulsion_samples`` random others (scaled up), keeping the
    layout O(n·s) per iteration.
    """
    n = graph.n_vertices
    rng = np.random.default_rng(seed)
    pos = rng.random((n, 2))
    if n <= 1:
        return pos
    samples = repulsion_samples if n > sample_threshold else None
    edges = graph.edge_array()
    return _unit_square(
        _fr_iterations(pos, edges, 0.12, iterations, rng, samples)
    )


def _fr_iterations(
    pos: np.ndarray,
    edges: np.ndarray,
    temp: float,
    iterations: int,
    rng: np.random.Generator,
    samples: Optional[int],
) -> np.ndarray:
    """``iterations`` FR steps on ``pos``, in place, the displacement
    cap cooling linearly from ``temp``.  Repulsion comes from every
    vertex (``samples=None``) or from ``samples`` drawn from ``rng`` each
    step, scaled by ``n / samples``."""
    n = len(pos)
    k = 1.0 / np.sqrt(n)
    cool = temp / (iterations + 1)
    for __ in range(iterations):
        if samples is None:
            others = pos
        else:
            others = pos[rng.choice(n, size=samples, replace=False)]
        dx = pos[:, 0] - others[:, 0, None]
        dy = pos[:, 1] - others[:, 1, None]
        # In place: each element sees the operations of
        # ``sqrt(dx*dx + dy*dy) + 1e-9`` and ``dx / dist * force`` in
        # the same order, so layouts stay byte-identical.
        dist = dx * dx
        dist += dy * dy
        np.sqrt(dist, out=dist)
        dist += 1e-9
        if samples is None:
            np.fill_diagonal(dist, np.inf)
        force = k * k / dist
        force *= n / len(others)
        dx /= dist
        dx *= force
        dy /= dist
        dy *= force
        disp = np.zeros((n, 2))
        disp[:, 0] += dx.sum(axis=0)
        disp[:, 1] += dy.sum(axis=0)
        if len(edges):
            d = pos[edges[:, 0]] - pos[edges[:, 1]]
            dist = np.sqrt((d ** 2).sum(axis=1)) + 1e-9
            pull = (dist / k)[:, None] * d / dist[:, None]
            np.add.at(disp, edges[:, 0], -pull)
            np.add.at(disp, edges[:, 1], pull)
        length = np.sqrt((disp ** 2).sum(axis=1)) + 1e-9
        capped = np.minimum(length, temp)
        pos += disp / length[:, None] * capped[:, None]
        temp = max(temp - cool, 1e-4)
    return pos


def _unit_square(pos: np.ndarray) -> np.ndarray:
    """``pos`` shifted to 0 and divided by its span, per axis."""
    pos = pos - pos.min(axis=0)
    span = pos.max(axis=0)
    span[span == 0] = 1.0
    return pos / span


def draw_graph_svg(
    graph: CSRGraph,
    pos: np.ndarray,
    colors: Optional[np.ndarray] = None,
    values: Optional[np.ndarray] = None,
    size: int = 640,
    node_radius: float = 3.0,
    edge_opacity: float = 0.25,
    path: Optional[Union[str, Path]] = None,
) -> str:
    """Node-link SVG of a positioned graph.

    Vertices are coloured explicitly (``colors``, (n, 3) floats) or via
    the intensity ramp over ``values``; default is a neutral blue-grey.
    """
    if colors is None:
        if values is not None:
            colors = intensity_ramp(np.asarray(values, dtype=np.float64))
        else:
            colors = np.tile(
                np.array([0.35, 0.45, 0.65]), (graph.n_vertices, 1)
            )
    margin = 4 + node_radius
    scale = size - 2 * margin
    canvas = SVGCanvas(size, size)
    xy = pos * scale + margin
    for u, v in graph.edges():
        canvas.line(
            xy[u, 0], xy[u, 1], xy[v, 0], xy[v, 1],
            stroke=(0.5, 0.5, 0.5), stroke_width=0.5, opacity=edge_opacity,
        )
    for v in range(graph.n_vertices):
        canvas.circle(
            xy[v, 0], xy[v, 1], node_radius,
            fill=tuple(colors[v]), stroke=None, stroke_width=0.0,
        )
    if path is not None:
        canvas.save(path)
    return canvas.to_string()
