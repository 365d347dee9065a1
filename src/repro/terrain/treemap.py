"""Linked 2D treemap display (paper Fig 5(a)).

The treemap is the terrain with every boundary dropped to height 0:
nested circles coloured by value quartile (red = highest, then yellow,
green, blue).  It shows at a glance *where* high-value regions sit in
the layout — the paper links it beside the 3D view — at the cost of
losing fine height differences (Fig 5's peak-1 vs peak-2 discussion).
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..core.super_tree import SuperTree
from .colormap import quartile_colors
from .layout2d import TerrainLayout, layout_tree
from .svg import SVGCanvas

__all__ = ["treemap_svg"]


def treemap_svg(
    tree: SuperTree,
    layout: Optional[TerrainLayout] = None,
    size: int = 640,
    path: Optional[Union[str, Path]] = None,
) -> str:
    """Render the nested-boundary treemap as an SVG string.

    Boundaries are drawn root-first; each is filled with the quartile
    colour of its node's scalar value.  If ``path`` is given the SVG is
    also written there.
    """
    layout = layout or layout_tree(tree)
    xmin, ymin, xmax, ymax = layout.extent
    span = max(xmax - xmin, ymax - ymin)
    scale = size / span

    def sx(x: float) -> float:
        return (x - xmin) * scale

    def sy(y: float) -> float:
        return (y - ymin) * scale

    colors = quartile_colors(tree.scalars)
    canvas = SVGCanvas(size, size)
    stack = list(tree.roots)
    order = []
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(tree.children(node))
    for node in order:
        canvas.circle(
            sx(layout.cx[node]),
            sy(layout.cy[node]),
            layout.r[node] * scale,
            fill=tuple(colors[node]),
            stroke=(0.25, 0.25, 0.25),
            stroke_width=0.6,
            opacity=1.0,
        )
    if path is not None:
        canvas.save(path)
    return canvas.to_string()
