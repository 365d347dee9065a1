"""Level-of-detail tile pyramid over a pipeline's heightfield.

The server never rasterizes per request: each (dataset, measure, bins)
is rasterized **once** at the pyramid's maximum resolution — a normal
cached pipeline stage — and everything a client can ask for is derived
from that one artifact:

* coarser levels are power-of-two downsamples of the level below
  (peak-preserving 2×2 max-pooling, see
  :meth:`~repro.terrain.heightfield.Heightfield.downsample`);
* each level is cut into fixed ``tile_size × tile_size``
  :class:`~repro.terrain.heightfield.Tile` blocks addressed as
  ``(level, tx, ty)`` — ``tx`` counts columns (x/west→east), ``ty``
  counts rows (y/south→north in layout coordinates).

Level 0 is the finest: its tiles stitch back *bit-identically* to the
full-resolution rasterization (``tests/serve/test_lod.py``).  Level
``levels-1`` is a single tile of the whole terrain.

The level fields are cached stages of the pipeline (memory only), keyed
by the graph + field content fingerprints, so a changed field can never
serve a stale tile.  A tile is no artifact of its own: it is a crop of
its level's field, cut when asked.  The serving envelope
(:meth:`tile_payload`) is the tile's compact binary form plus its
strong ETag — the SHA-256 of the exact bytes on the wire; the server
keeps those encoded payloads, not tiles.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Tuple

import numpy as np

from ..engine.pipeline import Pipeline
from ..terrain.heightfield import Heightfield, Tile

__all__ = ["LODPyramid", "tile_etag"]


def tile_etag(payload: bytes) -> str:
    """Strong ETag of a tile payload: quoted content hash of its bytes."""
    return '"' + hashlib.sha256(payload).hexdigest()[:32] + '"'


class LODPyramid:
    """Tiled LOD pyramid bound to one :class:`Pipeline`.

    Parameters
    ----------
    pipeline:
        The (static) pipeline whose heightfield is served.
    tile_size:
        Edge length of every tile, in cells.
    levels:
        Pyramid depth; the base (level 0) resolution is
        ``tile_size * 2**(levels - 1)``, so the coarsest level is
        exactly one tile.

    Construction is free — no stage runs until a level or tile is first
    requested.
    """

    def __init__(
        self, pipeline: Pipeline, tile_size: int = 64, levels: int = 3
    ) -> None:
        if tile_size < 8:
            raise ValueError("tile_size must be >= 8")
        if tile_size % 2 != 0:
            raise ValueError("tile_size must be even (levels are 2x pools)")
        if levels < 1:
            raise ValueError("levels must be >= 1")
        self.pipeline = pipeline
        self.tile_size = int(tile_size)
        self.levels = int(levels)
        self.base_resolution = self.tile_size * 2 ** (self.levels - 1)

    # ------------------------------------------------------------------
    def _check_level(self, level: int) -> int:
        level = int(level)
        if not 0 <= level < self.levels:
            raise KeyError(
                f"level {level} out of range (pyramid has {self.levels} "
                "levels)"
            )
        return level

    def tiles_per_side(self, level: int) -> int:
        """Tile-grid edge length at ``level`` (level 0 is finest)."""
        return 2 ** (self.levels - 1 - self._check_level(level))

    def level_resolution(self, level: int) -> int:
        """Heightfield resolution at ``level``."""
        return self.tile_size * self.tiles_per_side(level)

    # -- levels ---------------------------------------------------------
    def level_field(self, level: int) -> Heightfield:
        """The whole heightfield at ``level`` (cached stage)."""
        level = self._check_level(level)
        if level == 0:
            return self.pipeline.heightfield(self.base_resolution)
        params = dict(
            self.pipeline.display_params(),
            resolution=self.base_resolution,
            level=level,
        )
        return self.pipeline.stage(
            "lod_level",
            params,
            lambda: self.level_field(level - 1).downsample(),
            disk=False,
        )

    def ensure_levels(self) -> Dict[str, object]:
        """Build every level (the coalesced cold-start unit) and return
        a JSON-ready summary of the pyramid's geometry."""
        base = self.level_field(0)
        for level in range(1, self.levels):
            self.level_field(level)
        return {
            "tile_size": self.tile_size,
            "levels": self.levels,
            "base_resolution": self.base_resolution,
            "extent": list(base.extent),
            "base": base.base,
            "tiles_per_side": [
                self.tiles_per_side(level) for level in range(self.levels)
            ],
        }

    # -- tiles ----------------------------------------------------------
    def _check_tile(self, level: int, tx: int, ty: int) -> Tuple[int, int, int]:
        level = self._check_level(level)
        per = self.tiles_per_side(level)
        tx, ty = int(tx), int(ty)
        if not (0 <= tx < per and 0 <= ty < per):
            raise KeyError(
                f"tile ({tx}, {ty}) out of range at level {level} "
                f"({per}x{per} tiles)"
            )
        return level, tx, ty

    def tile(self, level: int, tx: int, ty: int) -> Tile:
        """The tile at ``(level, tx, ty)``: a crop of the level's field."""
        level, tx, ty = self._check_tile(level, tx, ty)
        ts = self.tile_size
        block = self.level_field(level).crop(ty * ts, tx * ts, ts, ts)
        return Tile(
            level, tx, ty, block.height, block.node, block.extent, block.base
        )

    def tile_payload(self, level: int, tx: int, ty: int) -> Tuple[bytes, str]:
        """``(wire bytes, strong ETag)`` for one tile.

        The ETag is a content hash of the exact payload, so it is
        stable across processes and changes iff the underlying field
        (or pyramid parameters) change.
        """
        payload = self.tile(level, tx, ty).to_bytes()
        return payload, tile_etag(payload)

    # -- assembly -------------------------------------------------------
    def stitch(self, level: int) -> Heightfield:
        """Reassemble a whole level from its tiles (what a client does).

        For level 0 the result is bit-identical to
        ``pipeline.heightfield(base_resolution)``.
        """
        level = self._check_level(level)
        per = self.tiles_per_side(level)
        ts = self.tile_size
        res = per * ts
        height = np.empty((res, res), dtype=np.float64)
        node = np.empty((res, res), dtype=np.int64)
        tiles: List[Tile] = []
        for ty in range(per):
            for tx in range(per):
                tile = self.tile(level, tx, ty)
                tiles.append(tile)
                height[ty * ts:(ty + 1) * ts, tx * ts:(tx + 1) * ts] = (
                    tile.height
                )
                node[ty * ts:(ty + 1) * ts, tx * ts:(tx + 1) * ts] = tile.node
        first, last = tiles[0], tiles[-1]
        extent = (
            first.extent[0], first.extent[1], last.extent[2], last.extent[3]
        )
        return Heightfield(height, node, extent, first.base)

    def __repr__(self) -> str:
        return (
            f"LODPyramid(levels={self.levels}, tile_size={self.tile_size}, "
            f"base_resolution={self.base_resolution})"
        )
