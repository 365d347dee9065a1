"""Rasterize a nested-disc layout into a regular heightfield.

The terrain surface of the paper (Fig 4(c)) is the function that assigns
to every point of the 2D layout the scalar value of the *deepest*
boundary containing it; "walls" between a parent and a child boundary
are the resulting height discontinuities.  A regular-grid sampling of
this function is simple to build (paint discs parents-first), trivially
correct, and feeds both the 3D renderer and image-space analyses
(peak saliency in the user-study simulator).

For serving (:mod:`repro.serve`) a heightfield is additionally sliced
into fixed-size :class:`Tile` blocks and downsampled into coarser
level-of-detail copies: :meth:`Heightfield.downsample` halves the
resolution with peak-preserving 2×2 max-pooling, :meth:`Heightfield.crop`
cuts an axis-aligned sub-grid with a correctly remapped extent, and
:meth:`Tile.to_bytes` / :meth:`Tile.from_bytes` give tiles a compact
binary wire form.
"""

from __future__ import annotations

import json
import struct
import sys
from typing import Tuple

import numpy as np

from ..accel.raster import forest_depths, stamp_points
from .layout2d import TerrainLayout

__all__ = ["Heightfield", "Tile", "rasterize"]

_TILE_MAGIC = b"RPTILE1\n"


class Heightfield:
    """Grid sampling of the terrain function.

    Attributes
    ----------
    height:
        ``(res, res)`` float array of terrain heights.  Cells outside
        every root boundary sit at :attr:`base` (just below the minimum
        scalar, so the ground plane reads as "no component").
    node:
        ``(res, res)`` int array — deepest super node id per cell, −1
        outside.
    extent:
        ``(xmin, ymin, xmax, ymax)`` of the layout mapped onto the grid.
    base:
        Ground-plane height.
    """

    __slots__ = ("height", "node", "extent", "base")

    def __init__(
        self,
        height: np.ndarray,
        node: np.ndarray,
        extent: Tuple[float, float, float, float],
        base: float,
    ) -> None:
        self.height = height
        self.node = node
        self.extent = extent
        self.base = base

    @property
    def resolution(self) -> int:
        return self.height.shape[0]

    def grid_to_world(self, i: float, j: float) -> Tuple[float, float]:
        """Map fractional grid coordinates (row i, col j) to layout x, y."""
        xmin, ymin, xmax, ymax = self.extent
        res = self.resolution
        x = xmin + (j + 0.5) / res * (xmax - xmin)
        y = ymin + (i + 0.5) / res * (ymax - ymin)
        return x, y

    def world_to_grid(self, x: float, y: float) -> Tuple[int, int]:
        """Map layout coordinates to the nearest grid cell (row, col)."""
        xmin, ymin, xmax, ymax = self.extent
        res = self.resolution
        j = int((x - xmin) / (xmax - xmin) * res)
        i = int((y - ymin) / (ymax - ymin) * res)
        return min(max(i, 0), res - 1), min(max(j, 0), res - 1)

    def downsample(self) -> "Heightfield":
        """Half-resolution copy via 2×2 max-pooling.

        Each coarse cell takes the *highest* of its four fine cells (and
        that cell's node id), so peaks survive every level of an LOD
        pyramid — a mean would erode exactly the summits the terrain
        metaphor is built to show.  Ties break to the first cell in row-
        major scan order, making the result deterministic.
        """
        res = self.resolution
        if res % 2 != 0 or res < 2:
            raise ValueError(
                f"downsample needs an even resolution, got {res}"
            )
        half = res // 2
        blocks_h = (
            self.height.reshape(half, 2, half, 2)
            .transpose(0, 2, 1, 3)
            .reshape(half, half, 4)
        )
        blocks_n = (
            self.node.reshape(half, 2, half, 2)
            .transpose(0, 2, 1, 3)
            .reshape(half, half, 4)
        )
        pick = blocks_h.argmax(axis=2)[..., None]
        height = np.take_along_axis(blocks_h, pick, axis=2)[..., 0]
        node = np.take_along_axis(blocks_n, pick, axis=2)[..., 0]
        return Heightfield(height, node, self.extent, self.base)

    def crop(self, i0: int, j0: int, rows: int, cols: int) -> "Heightfield":
        """The ``rows × cols`` sub-grid starting at cell ``(i0, j0)``,
        with the extent remapped so world/grid round-trips stay exact.
        """
        res_i, res_j = self.height.shape
        if rows < 1 or cols < 1:
            raise ValueError("crop size must be at least 1x1")
        if i0 < 0 or j0 < 0 or i0 + rows > res_i or j0 + cols > res_j:
            raise ValueError(
                f"crop [{i0}:{i0 + rows}, {j0}:{j0 + cols}] outside "
                f"a {res_i}x{res_j} heightfield"
            )
        xmin, ymin, xmax, ymax = self.extent
        dx = (xmax - xmin) / res_j
        dy = (ymax - ymin) / res_i
        extent = (
            xmin + j0 * dx,
            ymin + i0 * dy,
            xmin + (j0 + cols) * dx,
            ymin + (i0 + rows) * dy,
        )
        return Heightfield(
            self.height[i0: i0 + rows, j0: j0 + cols].copy(),
            self.node[i0: i0 + rows, j0: j0 + cols].copy(),
            extent,
            self.base,
        )


class Tile:
    """One fixed-size block of an LOD level: ``(level, tx, ty)``.

    ``height`` and ``node`` are the block's slices of the level's
    heightfield; ``extent`` is the block's world rectangle and ``base``
    the ground-plane height (both needed to reassemble or hit-test a
    tile on its own).  The wire form (:meth:`to_bytes`) is a small JSON
    header plus the raw little-endian array bytes — compact enough to
    serve directly and stable enough to content-hash for ETags.
    """

    __slots__ = ("level", "tx", "ty", "height", "node", "extent", "base")

    def __init__(
        self,
        level: int,
        tx: int,
        ty: int,
        height: np.ndarray,
        node: np.ndarray,
        extent: Tuple[float, float, float, float],
        base: float,
    ) -> None:
        self.level = int(level)
        self.tx = int(tx)
        self.ty = int(ty)
        self.height = np.ascontiguousarray(height, dtype=np.float64)
        self.node = np.ascontiguousarray(node, dtype=np.int64)
        if self.height.shape != self.node.shape or self.height.ndim != 2:
            raise ValueError("tile height/node must be equal-shape 2D grids")
        self.extent = tuple(float(v) for v in extent)
        self.base = float(base)

    @property
    def size(self) -> int:
        return self.height.shape[0]

    def heightfield(self) -> Heightfield:
        """The tile as a standalone :class:`Heightfield`."""
        return Heightfield(self.height, self.node, self.extent, self.base)

    def to_bytes(self) -> bytes:
        """Binary envelope: magic, header length, JSON header, raw arrays."""
        header = json.dumps(
            {
                "level": self.level,
                "tx": self.tx,
                "ty": self.ty,
                "shape": list(self.height.shape),
                "extent": list(self.extent),
                "base": self.base,
            },
            sort_keys=True,
        ).encode()
        return b"".join(
            (
                _TILE_MAGIC,
                struct.pack("<I", len(header)),
                header,
                self.height.astype("<f8").tobytes(),
                self.node.astype("<i8").tobytes(),
            )
        )

    @classmethod
    def from_bytes(cls, payload: bytes) -> "Tile":
        """Inverse of :meth:`to_bytes`; a malformed payload raises
        ``ValueError``."""
        magic_len = len(_TILE_MAGIC)
        if payload[:magic_len] != _TILE_MAGIC:
            raise ValueError("not a repro tile payload (bad magic)")
        body = magic_len + 4
        if len(payload) < body:
            raise ValueError("truncated tile payload: no header length")
        (header_len,) = struct.unpack_from("<I", payload, magic_len)
        try:
            doc = json.loads(payload[body: body + header_len].decode())
        except ValueError as exc:
            raise ValueError(f"bad tile header: {exc}") from None
        rows, cols = cls.check_header(doc)
        cells = rows * cols
        data = body + header_len
        expect = data + cells * 16
        if len(payload) != expect:
            raise ValueError(
                f"truncated tile payload: {len(payload)} bytes, "
                f"expected {expect}"
            )
        height = np.frombuffer(
            payload, dtype="<f8", count=cells, offset=data
        ).reshape(rows, cols)
        node = np.frombuffer(
            payload, dtype="<i8", count=cells, offset=data + cells * 8
        ).reshape(rows, cols)
        return cls(
            doc["level"], doc["tx"], doc["ty"],
            height, node, tuple(doc["extent"]), doc["base"],
        )

    @staticmethod
    def check_header(doc) -> Tuple[int, int]:
        """``(rows, cols)`` of a tile header, the JSON object of
        :meth:`to_bytes`, after checking every field; ``ValueError``
        names the first bad one."""
        if not isinstance(doc, dict):
            raise ValueError(f"tile header is not an object: {doc!r:.40}")
        checks = (
            ("level", _is_count), ("tx", _is_count), ("ty", _is_count),
            ("shape", lambda v: _is_list(v, 2, _is_count)),
            ("extent", lambda v: _is_list(v, 4, _is_real)),
            ("base", _is_real),
        )
        for name, ok in checks:
            if name not in doc:
                raise ValueError(f"tile header has no {name!r}")
            if not ok(doc[name]):
                raise ValueError(f"tile header {name!r} is {doc[name]!r:.40}")
        return tuple(doc["shape"])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tile):
            return NotImplemented
        return (
            (self.level, self.tx, self.ty) == (other.level, other.tx, other.ty)
            and self.extent == other.extent
            and self.base == other.base
            and np.array_equal(self.height, other.height)
            and np.array_equal(self.node, other.node)
        )

    def __repr__(self) -> str:
        return (
            f"Tile(level={self.level}, tx={self.tx}, ty={self.ty}, "
            f"size={self.size})"
        )


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_real(value) -> bool:
    """A JSON number that converts to a float (no ``10**400``)."""
    return type(value) is float or (
        type(value) is int and abs(value) <= sys.float_info.max
    )


def _is_list(value, length: int, ok) -> bool:
    return (
        isinstance(value, list) and len(value) == length
        and all(ok(v) for v in value)
    )


def _paint_disc(height, node, xs, ys, cx, cy, j_lo, j_hi, i_lo, i_hi, r, h, nid):
    """Overwrite one disc's cells."""
    sub_x = xs[j_lo:j_hi] - cx
    sub_y = ys[i_lo:i_hi] - cy
    mask = (sub_x[None, :] ** 2 + sub_y[:, None] ** 2) <= r * r
    height[i_lo:i_hi, j_lo:j_hi][mask] = h
    node[i_lo:i_hi, j_lo:j_hi][mask] = nid


def rasterize(layout: TerrainLayout, resolution: int = 160) -> Heightfield:
    """Paint the layout's discs in level-major order.

    Discs paint one tree level at a time, shallowest first, so a deeper
    boundary always paints after (and therefore over) a shallower one —
    each cell ends at the *deepest* containing boundary, exactly the
    terrain function, even where discs from different subtrees overlap.
    Within a level, full discs paint in ascending node id, then the
    level's sub-pixel discs stamp their nearest cell (conditioned on
    the standing height, so tiny leaves register without burying a
    taller stamp).  O(nodes × disc pixels), vectorised per disc, with
    a level's sub-pixel stamps — typically the *bulk* of a real tree's
    nodes — batched into one sort-and-scatter (:mod:`repro.accel.raster`)
    that leaves the grid a per-node stamp loop leaves.
    """
    if resolution < 4:
        raise ValueError("resolution must be >= 4")
    tree = layout.tree
    xmin, ymin, xmax, ymax = layout.extent
    span_x = xmax - xmin
    span_y = ymax - ymin
    res = resolution
    scalars = tree.scalars
    spread = float(scalars.max() - scalars.min())
    base = float(scalars.min()) - (0.05 * spread if spread > 0 else 1.0)
    height = np.full((res, res), base)
    node = np.full((res, res), -1, dtype=np.int64)

    # Cell-centre coordinate axes.
    xs = xmin + (np.arange(res) + 0.5) / res * span_x
    ys = ymin + (np.arange(res) + 0.5) / res * span_y

    # Canonical paint order: by depth, then node id.
    depth = forest_depths(tree.parent)
    order = np.lexsort((np.arange(tree.n_nodes), depth))
    level_starts = np.searchsorted(depth[order], np.arange(depth.max() + 2))

    cxs, cys, rs = layout.cx, layout.cy, layout.r
    j_lo = np.searchsorted(xs, cxs - rs)
    j_hi = np.searchsorted(xs, cxs + rs)
    i_lo = np.searchsorted(ys, cys - rs)
    i_hi = np.searchsorted(ys, cys + rs)
    tiny = (j_lo >= j_hi) | (i_lo >= i_hi)
    # Sub-pixel stamp cells, truncated toward zero then clamped
    # exactly like an int() + clip per node.
    t_i = np.clip(((cys - ymin) / span_y * res).astype(np.int64), 0, res - 1)
    t_j = np.clip(((cxs - xmin) / span_x * res).astype(np.int64), 0, res - 1)
    for lo, hi in zip(level_starts[:-1], level_starts[1:]):
        nodes = order[lo:hi]
        for nid in nodes[~tiny[nodes]].tolist():
            _paint_disc(
                height, node, xs, ys, cxs[nid], cys[nid],
                int(j_lo[nid]), int(j_hi[nid]),
                int(i_lo[nid]), int(i_hi[nid]),
                rs[nid], scalars[nid], nid,
            )
        points = nodes[tiny[nodes]]
        stamp_points(
            height, node, t_i[points], t_j[points], points,
            scalars[points],
        )
    return Heightfield(height, node, layout.extent, base)
