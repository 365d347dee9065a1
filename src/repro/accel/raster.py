"""Level-batched stamping kernels for heightfield rasterization.

:func:`repro.terrain.heightfield.rasterize` paints a tree's discs in
level-major order (all depth-0 discs, then depth-1, ...; see its
docstring for why that order is canonical).  Within a level the
expensive population is the *sub-pixel* discs — real trees carry
thousands of leaf nodes whose discs cover less than one grid cell, and
a per-node loop pays a Python iteration per leaf just to stamp a single
cell.  The kernels here batch that work:

* :func:`forest_depths` — per-node depth of a parent-pointer forest by
  whole-level propagation (no per-node parent chasing);
* :func:`stamp_points` — one level's sub-pixel stamps as a single
  sort-and-scatter: group the stamps by target cell, pick each cell's
  winner (the stamp the sequential rule would leave in place:
  highest scalar, latest position among equals), and apply the
  surviving stamps with one fancy-indexed compare-and-set.

Both produce exactly the arrays the per-node loop produces (the oracle
in ``tests/accel/oracles.py``; ``tests/accel/test_raster_equivalence.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["forest_depths", "stamp_points"]


def forest_depths(parent: np.ndarray) -> np.ndarray:
    """Depth of every node of a parent-pointer forest (roots at 0)."""
    parent = np.asarray(parent, dtype=np.int64)
    n = len(parent)
    depth = np.zeros(n, dtype=np.int64)
    known = parent < 0
    d = 0
    while not known.all():
        frontier = ~known & (parent >= 0) & known[np.maximum(parent, 0)]
        if not frontier.any():
            raise ValueError("parent pointers contain a cycle")
        d += 1
        depth[frontier] = d
        known |= frontier
    return depth


def stamp_points(
    height: np.ndarray,
    node: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    ids: np.ndarray,
    scalars: np.ndarray,
) -> None:
    """Apply one level's sub-pixel stamps to ``height``/``node`` in place.

    ``rows[p], cols[p]`` is stamp ``p``'s grid cell, ``ids[p]`` the node
    id to record and ``scalars[p]`` its height.  Sequential semantics
    being batched: stamps run in position order, each painting its cell
    iff its scalar is >= the cell's current height.  Per cell that
    leaves the highest scalar — and, among stamps tying for it, the
    latest position — so one lexsort picks every cell's winner and a
    single masked scatter applies them.
    """
    if len(ids) == 0:
        return
    res_cols = node.shape[1]
    cells = rows * np.int64(res_cols) + cols
    order = np.lexsort((np.arange(len(ids)), scalars, cells))
    cells_sorted = cells[order]
    last_of_group = np.ones(len(order), dtype=bool)
    last_of_group[:-1] = cells_sorted[1:] != cells_sorted[:-1]
    win = order[last_of_group]
    wr = rows[win]
    wc = cols[win]
    ws = scalars[win]
    ok = ws >= height[wr, wc]
    height[wr[ok], wc[ok]] = ws[ok]
    node[wr[ok], wc[ok]] = ids[win][ok]
