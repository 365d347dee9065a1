"""Mesh export and turntable rendering.

Rounds out the headless toolchain:

* :func:`export_obj` — write the terrain mesh as Wavefront OBJ (with
  per-face material colours in a sidecar MTL), so the terrain opens in
  any 3D package;
* :func:`export_svg3d` — vector 3D render via painter's-algorithm
  depth sorting (resolution-independent figures for papers);
* :func:`orbit_frames` — a deterministic turntable: N renders on an
  azimuth sweep, standing in for the paper's interactive rotation.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from .camera import Camera
from .colormap import rgb_to_hex
from .mesh import TerrainMesh
from .render import _shade_faces, render_mesh, save_png
from .svg import SVGCanvas

__all__ = ["export_obj", "export_svg3d", "orbit_frames"]

PathLike = Union[str, Path]


def export_obj(mesh: TerrainMesh, path: PathLike) -> Path:
    """Write ``mesh`` as Wavefront OBJ + MTL.

    One material per distinct face colour; faces are grouped by
    material so the files stay compact.  Returns the OBJ path.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    mtl_path = path.with_suffix(".mtl")

    colors = np.round(mesh.face_colors, 4)
    uniq, inverse = np.unique(colors, axis=0, return_inverse=True)

    with open(mtl_path, "w") as mtl:
        for i, (r, g, b) in enumerate(uniq):
            mtl.write(f"newmtl terrain_{i}\n")
            mtl.write(f"Kd {r:.4f} {g:.4f} {b:.4f}\n")

    with open(path, "w") as obj:
        obj.write(f"mtllib {mtl_path.name}\n")
        for x, y, z in mesh.vertices:
            obj.write(f"v {x:.6f} {y:.6f} {z:.6f}\n")
        for material in range(len(uniq)):
            obj.write(f"usemtl terrain_{material}\n")
            for face in mesh.faces[inverse == material]:
                a, b, c = (int(v) + 1 for v in face)  # OBJ is 1-based
                obj.write(f"f {a} {b} {c}\n")
    return path


def export_svg3d(
    mesh: TerrainMesh,
    camera: Optional[Camera] = None,
    width: int = 640,
    height: int = 480,
    ambient: float = 0.45,
    path: Optional[PathLike] = None,
) -> str:
    """Vector 3D render: project, depth-sort, draw back-to-front.

    The painter's algorithm is exact for a heightfield viewed from
    above the ground plane, and yields resolution-independent figures.
    Large meshes produce large files — simplify the tree first.
    """
    camera = camera or Camera()
    xy, depth = camera.project(mesh.vertices, width, height)
    colors = _shade_faces(mesh, ambient)

    face_depth = depth[mesh.faces].mean(axis=1)
    order = np.argsort(-face_depth)  # farthest first

    canvas = SVGCanvas(width, height)
    for f in order:
        zs = depth[mesh.faces[f]]
        if (zs <= 0).any():
            continue
        points = [(float(x), float(y)) for x, y in xy[mesh.faces[f]]]
        canvas.polygon(points, fill=tuple(colors[f]), stroke=None)
    if path is not None:
        canvas.save(path)
    return canvas.to_string()


def orbit_frames(
    mesh: TerrainMesh,
    n_frames: int = 8,
    camera: Optional[Camera] = None,
    width: int = 320,
    height: int = 240,
    directory: Optional[PathLike] = None,
) -> List[np.ndarray]:
    """Render a full 360° azimuth sweep (the rotate interaction).

    Returns the frames; if ``directory`` is given, also writes
    ``frame_000.png`` … so they can be assembled into an animation.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be >= 1")
    camera = camera or Camera()
    frames = []
    for i in range(n_frames):
        view = camera.rotated(d_azimuth=360.0 * i / n_frames)
        image = render_mesh(mesh, camera=view, width=width, height=height)
        frames.append(image)
        if directory is not None:
            save_png(image, Path(directory) / f"frame_{i:03d}.png")
    return frames
