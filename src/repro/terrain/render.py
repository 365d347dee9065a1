"""Software 3D renderer: z-buffered triangle rasterizer + image writers.

A from-scratch replacement for the paper's OpenGL viewer, so the whole
terrain pipeline runs headless: project triangles through an orbit
:class:`~repro.terrain.camera.Camera`, fill them by barycentric
rasterization into a z-buffer, shade with a single directional light,
and write PNG (stdlib zlib) or binary PPM.  The z-buffer runs in the
native tier's C kernel (:func:`repro.accel.native.zbuffer`) where a
compiler is present, and as a batched numpy pass otherwise; both do the
same double arithmetic and write the same image byte for byte.

High-level entry point: :func:`render_terrain` — scalar graph/tree in,
image (and optional file) out.
"""

from __future__ import annotations

import struct
import zlib
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from .. import accel
from ..accel import native as _native
from ..core.super_tree import SuperTree
from ..obs import trace as obs_trace
from .camera import Camera
from .colormap import intensity_ramp
from .heightfield import Heightfield, rasterize
from .layout2d import TerrainLayout, layout_tree
from .mesh import TerrainMesh, build_mesh

__all__ = [
    "render_mesh",
    "render_terrain",
    "node_colors_from_item_values",
    "save_png",
    "save_ppm",
]

_LIGHT = np.array([0.35, -0.5, 0.85])
_LIGHT_DIR = _LIGHT / np.linalg.norm(_LIGHT)

#: Most (face, pixel) candidate pairs rasterized at once: bounds the
#: renderer's working memory whatever the mesh or image size.
_PAIR_BUDGET = 1 << 14


def _shade_faces(mesh: TerrainMesh, ambient: float) -> np.ndarray:
    """Lambert-shaded (m, 3) face colours under the fixed light."""
    # One (m, 3) slab per corner; the edges from corner 0 overwrite
    # the slabs of corners 1 and 2.
    v0, e1, e2 = np.take(mesh.vertices, mesh.faces.T, axis=0)
    e1 -= v0
    e2 -= v0
    normals = np.cross(e1, e2)
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    normals /= np.where(norms > 1e-12, norms, 1.0)
    # Faces are viewed from above; flip normals pointing down.
    np.multiply(normals, -1, out=normals, where=normals[:, 2:] < 0)
    diffuse = np.clip(normals @ _LIGHT_DIR, 0.0, 1.0)
    shade = ambient + (1.0 - ambient) * diffuse
    colors = mesh.face_colors * shade[:, None]
    return np.clip(colors, 0.0, 1.0, out=colors)


def _zbuffer_tier() -> str:
    """``native`` when the C z-buffer is loaded and the accel mode
    allows it, else ``vector`` (the numpy pair pass)."""
    if accel.resolve(native=True) == "native":
        return "native"
    return "vector"


def _pixel_range(coords: np.ndarray, size: int):
    """Each face's pixel range ``[lo, hi)`` along one axis, from its
    corners' (3, m) coordinates: truncated as int() does and clipped
    before the integer cast so that far-off vertices cannot overflow
    it."""
    lo = np.minimum(np.minimum(coords[0], coords[1]), coords[2])
    hi = np.maximum(np.maximum(coords[0], coords[1]), coords[2])
    return (np.clip(np.trunc(lo), 0, size).astype(np.int64),
            np.clip(np.trunc(hi) + 1, 0, size).astype(np.int64))


def render_mesh(
    mesh: TerrainMesh,
    camera: Optional[Camera] = None,
    width: int = 640,
    height: int = 480,
    background=(1.0, 1.0, 1.0),
    ambient: float = 0.45,
) -> np.ndarray:
    """Rasterize a terrain mesh to an (H, W, 3) uint8 image.

    Faces behind the camera, off screen or of zero area are culled;
    every pixel of each other face's clipped bounding box gets the
    barycentric inside test and, when inside, a depth.  Each pixel
    takes its nearest face, and on an exact depth tie the earliest
    face, as a face-by-face z-buffer with a strict ``<`` does.  The
    native tier's C kernel walks the faces in order; without it,
    :func:`_pair_zbuffer` does the same arithmetic in numpy batches.
    """
    if width < 1 or height < 1:
        raise ValueError(
            f"image size must be at least 1x1, got {width}x{height}"
        )
    camera = camera or Camera()
    xy, depth = camera.project(mesh.vertices, width, height)

    n_faces = len(mesh.faces)
    # Colour table: one row per face, then the background.
    table = np.empty((n_faces + 1, 3))
    table[:n_faces] = _shade_faces(mesh, ambient)
    table[n_faces] = background
    table = (table * 255).astype(np.uint8)

    # Row k holds every face's corner k.
    corners = mesh.faces.T
    xs, ys, zs = xy[:, 0][corners], xy[:, 1][corners], depth[corners]
    min_x, max_x = _pixel_range(xs, width)
    min_y, max_y = _pixel_range(ys, height)
    x0, y0 = xs[0], ys[0]
    area = (xs[1] - x0) * (ys[2] - y0) - (xs[2] - x0) * (ys[1] - y0)
    keep = np.flatnonzero(
        (zs[0] > 0) & (zs[1] > 0) & (zs[2] > 0)
        & (min_x < max_x)
        & (min_y < max_y)
        & (np.abs(area) >= 1e-12)
    )
    zbuffer = (_native.zbuffer if _zbuffer_tier() == "native"
               else _pair_zbuffer)
    owner = zbuffer(xy, depth, mesh.faces, (min_x, max_x, min_y, max_y),
                    keep, width, height)
    return np.take(table, owner, axis=0).reshape(height, width, 3)


def _pair_zbuffer(xy, depth, faces, box, keep, width, height) -> np.ndarray:
    """numpy twin of :func:`repro.accel.native.zbuffer`: the owning face
    of each pixel, row-major, ``len(faces)`` for the background.

    Each kept face's box is expanded into (face, pixel) candidate
    pairs, in face order and at most ``_PAIR_BUDGET`` at a time; the
    barycentric inside test and the depth run on a whole chunk of pairs
    at once, operation for operation as a per-face loop computes them.
    Among equally near pairs the earliest face wins, so the image does
    not depend on the chunk size.
    """
    n_faces = len(faces)
    corners = faces[keep].T
    xs, ys = xy[:, 0][corners], xy[:, 1][corners]
    z0, z1, z2 = depth[corners]
    x0, y0 = xs[0], ys[0]
    dx1, dy1 = xs[1] - x0, ys[1] - y0
    dx2, dy2 = xs[2] - x0, ys[2] - y0
    area = dx1 * dy2 - dx2 * dy1
    left, right, top, bottom = (b[keep] for b in box)
    box_w = right - left
    pairs = box_w * (bottom - top)
    ends = np.cumsum(pairs)
    starts = ends - pairs

    zbuf = np.full(height * width, np.inf)
    owner = np.full(height * width, n_faces)
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, _PAIR_BUDGET):
        hi = min(lo + _PAIR_BUDGET, total)
        # The faces whose pairs overlap [lo, hi), each cut to its share.
        first = np.searchsorted(ends, lo, side="right")
        stop = np.searchsorted(ends, hi - 1, side="right") + 1
        share = (np.minimum(ends[first:stop], hi)
                 - np.maximum(starts[first:stop], lo))
        f = np.repeat(np.arange(first, stop), share)
        row, col = np.divmod(np.arange(lo, hi) - starts[f], box_w[f])
        px = left[f] + col
        py = top[f] + row
        rel_x = (px + 0.5) - x0[f]
        rel_y = (py + 0.5) - y0[f]
        face_area = area[f]
        w0 = (dx1[f] * rel_y - rel_x * dy1[f]) / face_area
        w1 = (rel_x * dy2[f] - dx2[f] * rel_y) / face_area
        # Barycentrics: b1 = w1 (vertex 1), b2 = w0 (vertex 2).
        b0 = 1.0 - w0 - w1
        hit = np.flatnonzero((b0 >= 0) & (w0 >= 0) & (w1 >= 0))
        f = f[hit]
        z = b0[hit] * z0[f] + w1[hit] * z1[f] + w0[hit] * z2[f]
        pixel = py[hit] * width + px[hit]
        # A pair takes its pixel when it is the chunk's nearest and
        # strictly nearer than every earlier chunk; among equally near
        # pairs the earliest face wins.
        before = zbuf[pixel]
        np.minimum.at(zbuf, pixel, z)
        won = (z == zbuf[pixel]) & (z < before)
        pixel = pixel[won]
        owner[pixel] = n_faces
        np.minimum.at(owner, pixel, keep[f[won]])
    return owner


def node_colors_from_item_values(
    tree: SuperTree, values: np.ndarray, palette=intensity_ramp
) -> np.ndarray:
    """Per-super-node colours from per-*item* values.

    ``values`` holds one number per graph item (vertex or edge); each
    super node takes the palette colour of its members' mean value.
    This is how the paper colours a terrain by a *second* measure.
    """
    values = np.asarray(values, dtype=np.float64)
    node_values = np.array(
        [values[m].mean() if len(m) else 0.0 for m in tree.members]
    )
    return palette(node_values)


def node_colors_categorical(
    tree: SuperTree, labels: np.ndarray, color_table: np.ndarray
) -> np.ndarray:
    """Per-super-node colours from per-item categorical labels.

    Each super node takes the colour of its members' majority label
    (e.g. dominant role, Fig 9; plant genus, Fig 11).
    """
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((tree.n_nodes, 3))
    for s, member in enumerate(tree.members):
        if len(member):
            counts = np.bincount(labels[member])
            out[s] = color_table[int(counts.argmax())]
    return out


def render_terrain(
    tree: SuperTree,
    color_values: Optional[np.ndarray] = None,
    categorical_labels: Optional[np.ndarray] = None,
    color_table: Optional[np.ndarray] = None,
    camera: Optional[Camera] = None,
    resolution: int = 160,
    width: int = 640,
    height: int = 480,
    z_scale: float = 0.55,
    layout: Optional[TerrainLayout] = None,
    heightfield: Optional[Heightfield] = None,
    path: Optional[Union[str, Path]] = None,
) -> np.ndarray:
    """One-call pipeline: super tree → layout → heightfield → image.

    By default the terrain is coloured by its own scalar (height);
    pass ``color_values`` (one per item) to colour by a second measure,
    or ``categorical_labels`` + ``color_table`` for nominal attributes.
    Precomputed ``layout``/``heightfield`` can be reused across camera
    angles.  If ``path`` is given, the image is saved (suffix picks
    PNG or PPM).
    """
    layout = layout or layout_tree(tree)
    hf = heightfield or rasterize(layout, resolution=resolution)
    if categorical_labels is not None:
        if color_table is None:
            raise ValueError("categorical_labels requires color_table")
        node_colors = node_colors_categorical(
            tree, categorical_labels, np.asarray(color_table)
        )
    elif color_values is not None:
        node_colors = node_colors_from_item_values(tree, color_values)
    else:
        node_colors = intensity_ramp(tree.scalars)
    with obs_trace.span("stage.mesh"):
        mesh = build_mesh(hf, node_colors, z_scale=z_scale)
    with obs_trace.span(
        "stage.render", faces=mesh.n_faces, width=width, height=height
    ) as sp:
        image = render_mesh(mesh, camera=camera, width=width, height=height)
        sp.set(tier=_zbuffer_tier())
    if path is not None:
        path = Path(path)
        with obs_trace.span("stage.encode"):
            if path.suffix.lower() == ".ppm":
                save_ppm(image, path)
            else:
                save_png(image, path)
    return image


def save_png(image: np.ndarray, path: Union[str, Path]) -> Path:
    """Write an (H, W, 3) uint8 image as PNG (pure stdlib zlib)."""
    image = np.ascontiguousarray(image, dtype=np.uint8)
    h, w = image.shape[:2]
    raw = b"".join(
        b"\x00" + image[row].tobytes() for row in range(h)
    )

    def chunk(tag: bytes, payload: bytes) -> bytes:
        return (
            struct.pack(">I", len(payload))
            + tag
            + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
        )

    header = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    blob = (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", header)
        + chunk(b"IDAT", zlib.compress(raw, 6))
        + chunk(b"IEND", b"")
    )
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(blob)
    return path


def save_ppm(image: np.ndarray, path: Union[str, Path]) -> Path:
    """Write an (H, W, 3) uint8 image as binary PPM (P6)."""
    image = np.ascontiguousarray(image, dtype=np.uint8)
    h, w = image.shape[:2]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(f"P6\n{w} {h}\n255\n".encode())
        handle.write(image.tobytes())
    return path
