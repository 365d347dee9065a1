"""1-D terrain profiles (mountain silhouettes).

A lightweight alternative view of a scalar tree: every subtree gets an
x-interval proportional to its size, and the silhouette height at x is
the scalar of the deepest spanning node — the classic contour-tree
"landscape profile".  Profiles read like the 3D terrain's skyline and
fit in a strip chart, so they complement the treemap as a linked 2D
display.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from ..core.super_tree import SuperTree
from .colormap import intensity_ramp
from .svg import SVGCanvas

__all__ = ["profile_intervals", "profile_svg"]


def profile_intervals(tree: SuperTree) -> np.ndarray:
    """Per-node x-intervals of the landscape profile.

    Returns an ``(n_nodes, 2)`` array of ``[x0, x1)`` spans in [0, 1]:
    the root spans everything; each child's span nests inside its
    parent's, width proportional to subtree size, children centred in
    weight order so the tallest structure rises mid-span (the standard
    landscape aesthetic).
    """
    n = tree.n_nodes
    spans = np.zeros((n, 2))
    sizes = tree.subtree_sizes().astype(np.float64)
    roots = tree.roots
    total = float(sizes[roots].sum())
    cursor = 0.0
    order: List[int] = []
    for root in roots:
        width = sizes[root] / total
        spans[root] = (cursor, cursor + width)
        order.append(root)
        cursor += width
    stack = list(roots)
    while stack:
        node = stack.pop()
        kids = tree.children(node)
        if not kids:
            continue
        x0, x1 = spans[node]
        width = x1 - x0
        # Children sorted by size, alternating to the middle: biggest
        # central, smaller ones flanking.
        by_size = sorted(kids, key=lambda k: -sizes[k])
        arrangement: List[int] = []
        for i, kid in enumerate(by_size):
            if i % 2 == 0:
                arrangement.insert(len(arrangement) // 2, kid)
            else:
                arrangement.insert(0, kid)
        kid_total = float(sizes[kids].sum()) if len(kids) else 1.0
        denom = max(float(sizes[node]), kid_total)
        margin = width * (1.0 - kid_total / denom) / 2
        cursor = x0 + margin
        for kid in arrangement:
            kw = width * sizes[kid] / denom
            spans[kid] = (cursor, cursor + kw)
            cursor += kw
            stack.append(kid)
    return spans


def profile_svg(
    tree: SuperTree,
    width: int = 720,
    height: int = 240,
    path: Optional[Union[str, Path]] = None,
) -> str:
    """Render the landscape profile as an SVG strip chart.

    Each super node draws as a block from the base (its parent's
    height) up to its own scalar, coloured by the intensity ramp —
    stacking into the terrain's skyline.
    """
    spans = profile_intervals(tree)
    scalars = tree.scalars
    lo = float(scalars.min())
    hi = float(scalars.max())
    span_h = hi - lo if hi > lo else 1.0
    margin = 18.0
    plot_w = width - 2 * margin
    plot_h = height - 2 * margin

    def sx(x: float) -> float:
        return margin + x * plot_w

    def sy(value: float) -> float:
        return margin + (1.0 - (value - lo) / span_h) * plot_h

    colors = intensity_ramp(scalars)
    canvas = SVGCanvas(width, height)
    base_y = height - margin
    order = []
    stack = list(tree.roots)
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(tree.children(node))
    for node in order:
        x0, x1 = spans[node]
        p = tree.parent[node]
        y_base = base_y if p < 0 else sy(float(scalars[p]))
        y_top = sy(float(scalars[node]))
        canvas.rect(
            sx(x0), y_top, (x1 - x0) * plot_w, max(y_base - y_top, 0.0),
            fill=tuple(colors[node]), stroke=(0.2, 0.2, 0.2),
            stroke_width=0.3,
        )
    canvas.line(margin, base_y, width - margin, base_y,
                stroke=(0.1, 0.1, 0.1))
    if path is not None:
        canvas.save(path)
    return canvas.to_string()
