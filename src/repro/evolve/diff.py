"""Signed terrain-diff heightfields between consecutive windows.

A *diff field* is the cell-wise height change ``cur − prev`` between
two frames' rasterized terrains (same resolution; cells correspond in
normalized layout coordinates — each frame's layout is deterministic,
so persistent structure stays put and the diff reads as rise/fall).
Cells that are open ground in both frames are exactly zero; the
``node`` grid attributes each changed cell to the current frame's
super node (falling back to the vanished node for razed cells).

A :class:`DiffTiler` keeps each frame's rasterized field in memory and
stores nothing else: a diff is computed when asked, and a diff tile is
the diff of the two frames' crops, byte-identical to the same crop of
the whole diff.  The server keeps the encoded tiles
(:mod:`repro.serve.evolve`).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..obs import trace as obs_trace
from ..terrain.heightfield import Heightfield, Tile, rasterize
from ..terrain.layout2d import layout_tree

__all__ = ["diff_heightfield", "DiffTiler"]


def diff_heightfield(prev: Heightfield, cur: Heightfield) -> Heightfield:
    """The signed change field ``cur − prev``.

    The result's ``base`` is 0 (no change); its extent is the current
    frame's.  Raises when resolutions disagree.
    """
    if prev.height.shape != cur.height.shape:
        raise ValueError(
            f"heightfield shapes differ: {prev.height.shape} vs "
            f"{cur.height.shape}"
        )
    delta = cur.height - prev.height
    both_ground = (cur.node < 0) & (prev.node < 0)
    delta[both_ground] = 0.0
    node = np.where(cur.node >= 0, cur.node, prev.node)
    return Heightfield(delta, node, cur.extent, 0.0)


class DiffTiler:
    """Rasterize frames and cut diff fields and tiles from them.

    Feed frames in order with :meth:`add_frame`; then ``diff(w)`` is
    the change field of window ``w`` against ``w − 1`` and
    ``tile(w, tx, ty)`` one ``tile_size``² block of it.
    """

    def __init__(self, resolution: int = 256, tile_size: int = 64) -> None:
        if resolution % tile_size != 0:
            raise ValueError("resolution must be a multiple of tile_size")
        self.resolution = int(resolution)
        self.tile_size = int(tile_size)
        self._fields: Dict[int, Heightfield] = {}

    @property
    def tiles_per_side(self) -> int:
        return self.resolution // self.tile_size

    def add_frame(self, frame) -> Heightfield:
        """Rasterize one window frame; keep its field for diffing."""
        layout = layout_tree(frame.super)
        hf = rasterize(layout, self.resolution)
        self._fields[frame.index] = hf
        return hf

    def heightfield(self, window: int) -> Heightfield:
        try:
            return self._fields[window]
        except KeyError:
            raise KeyError(f"window {window} not rasterized") from None

    def _pair(self, window: int):
        if window not in self._fields or window - 1 not in self._fields:
            raise KeyError(
                f"diff needs windows {window - 1} and {window} rasterized"
            )
        return self._fields[window - 1], self._fields[window]

    def diff(self, window: int) -> Heightfield:
        """Change field of ``window`` vs ``window − 1``."""
        prev, cur = self._pair(window)
        with obs_trace.span("evolve.diff", window=window):
            return diff_heightfield(prev, cur)

    def tile(self, window: int, tx: int, ty: int) -> Tile:
        """One ``tile_size``² block of ``diff(window)``, cut from the
        two frames' fields."""
        per = self.tiles_per_side
        if not (0 <= tx < per and 0 <= ty < per):
            raise KeyError(
                f"no diff tile ({tx}, {ty}) — grid is {per}x{per}"
            )
        prev, cur = self._pair(window)
        size = self.tile_size
        i0, j0 = ty * size, tx * size
        block = diff_heightfield(
            prev.crop(i0, j0, size, size), cur.crop(i0, j0, size, size)
        )
        return Tile(0, tx, ty, block.height, block.node, block.extent, 0.0)

    def summary(self, window: int) -> Dict[str, object]:
        """Aggregate change statistics for one window diff."""
        field = self.diff(window)
        delta = field.height
        raised = int(np.count_nonzero(delta > 0))
        lowered = int(np.count_nonzero(delta < 0))
        return {
            "window": int(window),
            "resolution": self.resolution,
            "cells_raised": raised,
            "cells_lowered": lowered,
            "max_rise": float(delta.max(initial=0.0)),
            "max_drop": float(-delta.min(initial=0.0)),
            "mean_abs": float(np.abs(delta).mean()) if delta.size else 0.0,
        }
