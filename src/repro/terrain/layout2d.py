"""Nested-disc 2D layout of a super tree (paper Fig 4(b)).

Every super node becomes a circular *boundary* in the plane; a child's
disc lies strictly inside its parent's, and the enclosed area is
proportional to the number of graph items in the subtree below the node
(leaves degenerate to near-points, exactly as in the paper).  Sibling
subtrees share their parent's disc via weight-proportional sectors plus
a deterministic overlap-relaxation pass.

The layout is the single geometric source of truth: the heightfield
rasterizer, the treemap, peak selection, and region picking all consume
a :class:`TerrainLayout`.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from ..accel.geometry import relax_siblings
from ..core.super_tree import SuperTree

__all__ = ["TerrainLayout", "layout_tree"]


class TerrainLayout:
    """Disc per super node: centres ``cx, cy``, radii ``r``.

    Produced by :func:`layout_tree`.  Coordinates live in an abstract
    plane with the overall bounding square given by :attr:`extent` =
    ``(xmin, ymin, xmax, ymax)``.
    """

    __slots__ = ("tree", "cx", "cy", "r", "extent")

    def __init__(
        self,
        tree: SuperTree,
        cx: np.ndarray,
        cy: np.ndarray,
        r: np.ndarray,
    ) -> None:
        self.tree = tree
        self.cx = np.asarray(cx, dtype=np.float64)
        self.cy = np.asarray(cy, dtype=np.float64)
        self.r = np.asarray(r, dtype=np.float64)
        roots = np.asarray(tree.roots, dtype=np.int64)
        xmin = float((self.cx[roots] - self.r[roots]).min())
        xmax = float((self.cx[roots] + self.r[roots]).max())
        ymin = float((self.cy[roots] - self.r[roots]).min())
        ymax = float((self.cy[roots] + self.r[roots]).max())
        margin = 0.03 * max(xmax - xmin, ymax - ymin, 1e-9)
        self.extent = (
            xmin - margin,
            ymin - margin,
            xmax + margin,
            ymax + margin,
        )

    def node_at(self, x: float, y: float) -> Optional[int]:
        """Deepest super node whose boundary contains the point.

        Returns ``None`` when the point lies outside every root disc.
        This is the "select a region of the terrain" primitive of the
        paper's linked-2D-display interaction.
        """
        tree = self.tree
        current = None
        candidates = tree.roots
        while True:
            hit = None
            for node in candidates:
                dx = x - self.cx[node]
                dy = y - self.cy[node]
                if dx * dx + dy * dy <= self.r[node] ** 2:
                    hit = node
                    break
            if hit is None:
                return current
            current = hit
            candidates = tree.children(hit)

    def contains(self, node: int, x: float, y: float) -> bool:
        """Whether the disc of ``node`` contains the point."""
        dx = x - self.cx[node]
        dy = y - self.cy[node]
        return bool(dx * dx + dy * dy <= self.r[node] ** 2)

    def boundary_area(self, node: int) -> float:
        """Area enclosed by the node's boundary (∝ component size)."""
        return float(math.pi * self.r[node] ** 2)


def _place_children(
    cx: float,
    cy: float,
    radius: float,
    weights: np.ndarray,
    parent_weight: float,
    inner: float,
    fill: float,
    relax_iters: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Place child discs inside a parent disc.

    Child areas are proportional to their subtree weight *relative to
    the parent's* (the paper's area rule) — so a chain of single-member
    nodes shrinks only marginally per level and deep hierarchies keep
    their summit area.  Children are seeded at weight-proportional
    sector angles, then relaxed apart to remove sibling overlap with
    the accumulate-then-apply sweep of :mod:`repro.accel.geometry`.
    Groups of more than 24 siblings are ring-packed instead, so the
    O(k²) sweep only ever sees small groups.
    """
    k = len(weights)
    available = radius * inner
    parent_weight = max(parent_weight, float(weights.sum()), 1e-9)
    if k == 1:
        # Area-proportional, capped only to keep a hairline wall visible.
        ratio = math.sqrt(float(weights[0]) / parent_weight)
        return (
            np.array([cx]),
            np.array([cy]),
            np.array([min(ratio, 0.985) * radius]),
        )
    total = float(weights.sum())
    radii = radius * np.sqrt(weights / parent_weight)
    # Joint-fit guard: shrink if the siblings cannot possibly pack.
    packing = math.sqrt(total / parent_weight) / fill
    if packing > inner:
        radii *= inner / packing
    if k > 24:
        return _ring_pack(cx, cy, available, radii)
    # Seed on a ring at weight-proportional sector centres.
    fractions = np.cumsum(weights) / total
    centers_frac = fractions - weights / (2 * total)
    angles = 2 * math.pi * centers_frac
    dist = np.minimum(available - radii, available * 0.55)
    xs = cx + dist * np.cos(angles)
    ys = cy + dist * np.sin(angles)
    # Deterministic relaxation: push overlapping siblings apart, keep
    # each child inside the parent.
    xs, ys = relax_siblings(xs, ys, radii, cx, cy, available, relax_iters)
    return xs, ys, radii


def _ring_pack(
    cx: float, cy: float, available: float, radii: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic concentric-ring packing for large sibling counts.

    Children are sorted by radius (descending) and placed on successive
    rings from the outside in; avoids the O(k²) relaxation.
    """
    k = len(radii)
    order = np.argsort(-radii, kind="stable")
    xs = np.zeros(k)
    ys = np.zeros(k)
    idx = 0
    ring_r = available - float(radii[order[0]]) * 1.05
    while idx < k:
        r_big = float(radii[order[idx]])
        ring_r = min(ring_r, available - r_big * 1.05)
        if ring_r <= r_big:
            # Everything remaining piles near the centre.
            for j in range(idx, k):
                xs[order[j]], ys[order[j]] = cx, cy
            break
        angle = 0.0
        start = idx
        while idx < k and angle < 2 * math.pi:
            child = order[idx]
            step = 2 * math.asin(min(float(radii[child]) * 1.05 / ring_r, 1.0))
            if idx > start and angle + step > 2 * math.pi:
                break
            xs[child] = cx + ring_r * math.cos(angle + step / 2)
            ys[child] = cy + ring_r * math.sin(angle + step / 2)
            angle += step * 1.05
            idx += 1
        if idx < k:
            ring_r -= (r_big + float(radii[order[idx]])) * 1.1
    return xs, ys, radii


def layout_tree(
    tree: SuperTree,
    inner: float = 0.88,
    fill: float = 0.8,
    leaf_radius: float = 0.012,
    relax_iters: int = 40,
) -> TerrainLayout:
    """Compute the nested-disc layout of a super tree.

    Parameters
    ----------
    tree:
        The super tree to lay out.
    inner:
        Fraction of a parent's radius available to its children (the
        remaining annulus renders as the parent's own terrain "wall").
    fill:
        Shrink factor on child radii; smaller leaves more spacing.
    leaf_radius:
        Radius (relative to the unit root) for zero-weight leaves, which
        the paper draws as degenerate points.
    relax_iters:
        Iterations of the sibling-overlap relaxation.
    """
    n = tree.n_nodes
    cx = np.zeros(n)
    cy = np.zeros(n)
    r = np.zeros(n)
    sizes = tree.subtree_sizes()
    # Paper: the enclosed area is proportional to the subtree *excluding*
    # the node itself, so single-vertex leaves degenerate to points.  In
    # a super tree a node may hold a whole plateau of vertices, and the
    # paper also requires a peak's base area to reflect its component
    # size — so we exclude exactly one "self" vertex, which reproduces
    # both behaviours.
    weights = (sizes - 1).clip(min=0).astype(np.float64) + 1e-3

    roots = tree.roots
    # Radius ∝ sqrt(total items); the largest component sits at the
    # origin and smaller ones pack around it in deterministic rings.
    root_r = np.sqrt(sizes[roots].astype(np.float64))
    root_r = root_r / root_r.max()
    order = np.argsort(-root_r, kind="stable")
    main = order[0]
    cx[roots[main]] = 0.0
    cy[roots[main]] = 0.0
    r[roots[main]] = root_r[main]
    if len(roots) > 1:
        ring_r = root_r[main] * 1.05 + float(root_r[order[1]])
        angle = 0.0
        for pos in order[1:]:
            root = roots[pos]
            rr = float(root_r[pos])
            step = 2 * math.asin(min(rr * 1.1 / ring_r, 1.0))
            if angle + step > 2 * math.pi:
                angle = 0.0
                ring_r += 2.2 * rr
            cx[root] = ring_r * math.cos(angle + step / 2)
            cy[root] = ring_r * math.sin(angle + step / 2)
            r[root] = rr
            angle += step * 1.05

    stack = list(roots)
    while stack:
        node = stack.pop()
        kids = tree.children(node)
        if not kids:
            continue
        kid_weights = weights[kids]
        xs, ys, radii = _place_children(
            cx[node], cy[node], r[node], kid_weights, weights[node],
            inner, fill, relax_iters,
        )
        for kid, x, y, radius in zip(kids, xs, ys, radii):
            cx[kid] = x
            cy[kid] = y
            r[kid] = max(radius, leaf_radius * r[node])
            stack.append(kid)
    return TerrainLayout(tree, cx, cy, r)
