"""Simplified OpenOrd-style multilevel layout [26].

The user-study baseline for all three tasks: OpenOrd coarsens the graph
by edge matching, lays out the coarsest level force-directed, then
interpolates back down with progressively shorter refinement phases
(its "simulated annealing schedule" of liquid → expansion → cool-down
stages).  We reproduce that structure — matching-based coarsening,
seeded FR at each level with decreasing iteration budgets — which gives
the characteristic clustered blobs of OpenOrd at a fraction of the
code.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from ..graph.builders import from_edge_array
from ..graph.csr import CSRGraph
from ..terrain.colormap import intensity_ramp
from ..terrain.svg import SVGCanvas
from .spring import _fr_iterations, _unit_square, spring_layout

__all__ = ["coarsen", "openord_layout", "openord_svg"]

# Refinement budgets per level, coarse → fine (OpenOrd's stage schedule).
_STAGE_ITERATIONS = (60, 35, 20, 12, 8)


def coarsen(graph: CSRGraph, seed: int = 0) -> Tuple[CSRGraph, np.ndarray]:
    """One level of heavy-matching coarsening.

    Greedily matches each unmatched vertex with an unmatched neighbour
    (random order under ``seed``); matched pairs collapse into one
    coarse vertex.  Returns ``(coarse_graph, mapping)`` with
    ``mapping[v]`` the coarse id of fine vertex ``v``.
    """
    n = graph.n_vertices
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    mapping = -np.ones(n, dtype=np.int64)
    next_id = 0
    for v in order.tolist():
        if mapping[v] >= 0:
            continue
        mate = -1
        for w in graph.neighbors(v):
            if mapping[w] < 0 and w != v:
                mate = int(w)
                break
        mapping[v] = next_id
        if mate >= 0:
            mapping[mate] = next_id
        next_id += 1
    pairs = graph.edge_array()
    coarse_pairs = mapping[pairs]
    coarse = from_edge_array(coarse_pairs, n_vertices=next_id)
    return coarse, mapping


def openord_layout(
    graph: CSRGraph,
    levels: int = 4,
    seed: int = 0,
) -> np.ndarray:
    """Multilevel layout: coarsen ``levels`` times, lay out the coarsest
    graph, then project positions down with jittered refinement.

    Returns positions (n, 2) in [0, 1]².
    """
    hierarchy: List[Tuple[CSRGraph, np.ndarray]] = []
    current = graph
    for level in range(levels):
        if current.n_vertices <= 50:
            break
        coarse, mapping = coarsen(current, seed=seed + level)
        if coarse.n_vertices >= current.n_vertices:
            break
        hierarchy.append((current, mapping))
        current = coarse

    pos = spring_layout(current, iterations=_STAGE_ITERATIONS[0], seed=seed)
    rng = np.random.default_rng(seed + 17)
    for depth, (fine, mapping) in enumerate(reversed(hierarchy)):
        # Interpolate: each fine vertex starts at its coarse position
        # plus a small deterministic jitter, then refines briefly.
        jitter = (rng.random((fine.n_vertices, 2)) - 0.5) * 0.02
        start = pos[mapping] + jitter
        stage = _STAGE_ITERATIONS[min(depth + 1, len(_STAGE_ITERATIONS) - 1)]
        pos = _refine(fine, start, iterations=stage, seed=seed + depth)
    return _unit_square(pos)


def _refine(
    graph: CSRGraph, pos: np.ndarray, iterations: int, seed: int
) -> np.ndarray:
    """Short FR refinement from given initial positions."""
    return _fr_iterations(
        pos.copy(), graph.edge_array(), 0.05, iterations,
        np.random.default_rng(seed), min(graph.n_vertices, 300),
    )


def openord_svg(
    graph: CSRGraph,
    values: np.ndarray,
    sizes: Optional[np.ndarray] = None,
    size: int = 640,
    seed: int = 0,
    path: Optional[Union[str, Path]] = None,
) -> str:
    """OpenOrd-style SVG: multilevel positions, colour = ``values``
    (intensity ramp), optional per-vertex radii = ``sizes`` (used by the
    study's Task 3 where node size encodes a second measure)."""
    pos = openord_layout(graph, seed=seed)
    colors = intensity_ramp(np.asarray(values, dtype=np.float64))
    if sizes is None:
        radii = np.full(graph.n_vertices, 2.6)
    else:
        sizes = np.asarray(sizes, dtype=np.float64)
        lo, hi = sizes.min(), sizes.max()
        t = (sizes - lo) / (hi - lo) if hi > lo else np.full(len(sizes), 0.5)
        radii = 1.5 + 5.0 * t
    margin = 10.0
    scale = size - 2 * margin
    canvas = SVGCanvas(size, size)
    xy = pos * scale + margin
    for u, v in graph.edges():
        canvas.line(
            xy[u, 0], xy[u, 1], xy[v, 0], xy[v, 1],
            stroke=(0.6, 0.6, 0.6), stroke_width=0.4, opacity=0.12,
        )
    order = np.argsort(values)
    for v in order:
        canvas.circle(
            xy[v, 0], xy[v, 1], float(radii[v]),
            fill=tuple(colors[v]), stroke=None,
        )
    if path is not None:
        canvas.save(path)
    return canvas.to_string()
