"""LaNet-vi-style K-core onion layout [6].

The user-study baseline for Tasks 1–2: vertices are arranged in
concentric shells by core number — the densest core innermost — with
each shell's vertices spread angularly by connected component within
the shell.  Colour encodes coreness on the paper's intensity ramp.

This is a faithful simplification of LaNet-vi's published layout
principles (shell radius from coreness, angular sector from cluster
membership), sufficient for comparing "find the densest K-core" style
readability against the terrain.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..graph.csr import CSRGraph
from ..core.union_find import UnionFind
from ..measures.kcore import core_numbers
from ..terrain.colormap import intensity_ramp
from ..terrain.svg import SVGCanvas
from .spring import _unit_square

__all__ = ["lanet_vi_layout", "lanet_vi_svg"]


def _shell_components(graph: CSRGraph, core: np.ndarray, k: int) -> Dict[int, int]:
    """Component id within the k-shell (vertices with core == k),
    connectivity measured inside the >=k-core subgraph."""
    members = np.flatnonzero(core == k)
    alive = core >= k
    uf = UnionFind(graph.n_vertices)
    for v in members:
        for w in graph.neighbors(int(v)):
            if alive[w]:
                uf.union(int(v), int(w))
    roots: Dict[int, int] = {}
    out: Dict[int, int] = {}
    for v in members:
        root = uf.find(int(v))
        if root not in roots:
            roots[root] = len(roots)
        out[int(v)] = roots[root]
    return out


def lanet_vi_layout(
    graph: CSRGraph, seed: int = 0
) -> Tuple[np.ndarray, np.ndarray]:
    """Positions (n, 2) in [0, 1]² plus the core-number vector.

    Shell radius decreases with coreness (max core at the centre);
    within a shell, components occupy disjoint angular sectors and
    vertices jitter deterministically inside their sector.
    """
    n = graph.n_vertices
    rng = np.random.default_rng(seed)
    core = core_numbers(graph)
    k_max = int(core.max()) if n else 0
    pos = np.zeros((n, 2))
    for k in range(0, k_max + 1):
        members = np.flatnonzero(core == k)
        if len(members) == 0:
            continue
        radius = 0.05 + 0.45 * (k_max - k) / max(k_max, 1)
        comp = _shell_components(graph, core, k)
        comp_ids = sorted(set(comp.values()))
        sector = 2 * math.pi / max(len(comp_ids), 1)
        for v in members:
            c = comp[int(v)]
            angle = c * sector + rng.random() * sector
            rr = radius * (0.9 + 0.2 * rng.random())
            pos[v, 0] = 0.5 + rr * math.cos(angle)
            pos[v, 1] = 0.5 + rr * math.sin(angle)
    return _unit_square(pos), core


def lanet_vi_svg(
    graph: CSRGraph,
    size: int = 640,
    seed: int = 0,
    path: Optional[Union[str, Path]] = None,
) -> str:
    """Full LaNet-vi-style SVG: faint edges, shell-placed vertices
    coloured by coreness (blue = shallow, red = densest core)."""
    pos, core = lanet_vi_layout(graph, seed=seed)
    colors = intensity_ramp(core.astype(np.float64))
    margin = 8.0
    scale = size - 2 * margin
    canvas = SVGCanvas(size, size)
    xy = pos * scale + margin
    for u, v in graph.edges():
        canvas.line(
            xy[u, 0], xy[u, 1], xy[v, 0], xy[v, 1],
            stroke=(0.6, 0.6, 0.6), stroke_width=0.4, opacity=0.15,
        )
    order = np.argsort(core)  # densest drawn last (on top)
    for v in order:
        canvas.circle(
            xy[v, 0], xy[v, 1], 2.6,
            fill=tuple(colors[v]), stroke=None,
        )
    if path is not None:
        canvas.save(path)
    return canvas.to_string()
