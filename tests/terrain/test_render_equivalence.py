"""The rasterizer against a fixed oracle: the original face-by-face
scanline loop, kept here verbatim.

``render_mesh`` must return the loop's image byte for byte: same
culling, same barycentric and depth arithmetic, and on an exact depth
tie the earliest face.  Both z-buffer tiers are held to it: the numpy
pair pass (``vector``, which ``naive`` and hosts without a compiler run
too) by the module-level tests, and the C kernel by
:class:`TestNativeTier`, skipped where it cannot load.  The scenes cover
exact ties (duplicated and coplanar faces), zero-area faces, faces
behind the camera, off-screen faces, the empty mesh, and 1-pixel and
odd image sizes; the pair pass's chunk budget is also forced down to 1
and 7 pairs so that ties straddle chunk boundaries.  The grqc stand-in's
images at the CLI defaults are pinned by digest.
"""

import hashlib
from contextlib import contextmanager
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel
from repro.accel import native
from repro.engine import DatasetSource, Pipeline
from repro.terrain import Camera, build_mesh, intensity_ramp, render
from repro.terrain.mesh import TerrainMesh

_LIGHT = np.array([0.35, -0.5, 0.85])
_LIGHT_DIR = _LIGHT / np.linalg.norm(_LIGHT)


def loop_render_mesh(
    mesh: TerrainMesh,
    camera: Optional[Camera] = None,
    width: int = 640,
    height: int = 480,
    background=(1.0, 1.0, 1.0),
    ambient: float = 0.45,
) -> np.ndarray:
    """Rasterize a terrain mesh to an (H, W, 3) uint8 image."""
    camera = camera or Camera()
    xy, depth = camera.project(mesh.vertices, width, height)

    # Lambert shading per face.
    tri = mesh.vertices[mesh.faces]
    normals = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    norms = np.linalg.norm(normals, axis=1, keepdims=True)
    normals = normals / np.where(norms > 1e-12, norms, 1.0)
    # Faces are viewed from above; flip normals pointing down.
    normals[normals[:, 2] < 0] *= -1
    diffuse = np.clip(normals @ _LIGHT_DIR, 0.0, 1.0)
    shade = ambient + (1.0 - ambient) * diffuse
    colors = np.clip(mesh.face_colors * shade[:, None], 0.0, 1.0)

    frame = np.empty((height, width, 3), dtype=np.float64)
    frame[:] = np.asarray(background)
    zbuf = np.full((height, width), np.inf)

    pts = xy[mesh.faces]  # (m, 3, 2)
    zs = depth[mesh.faces]  # (m, 3)
    # Painter-friendly order is unnecessary with a z-buffer; iterate as is.
    for f in range(len(mesh.faces)):
        z0, z1, z2 = zs[f]
        if z0 <= 0 or z1 <= 0 or z2 <= 0:
            continue
        (x0, y0), (x1, y1), (x2, y2) = pts[f]
        min_x = max(int(min(x0, x1, x2)), 0)
        max_x = min(int(max(x0, x1, x2)) + 1, width)
        min_y = max(int(min(y0, y1, y2)), 0)
        max_y = min(int(max(y0, y1, y2)) + 1, height)
        if min_x >= max_x or min_y >= max_y:
            continue
        area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        if abs(area) < 1e-12:
            continue
        px = (np.arange(min_x, max_x) + 0.5)[None, :]
        py = (np.arange(min_y, max_y) + 0.5)[:, None]
        w0 = ((x1 - x0) * (py - y0) - (px - x0) * (y1 - y0)) / area
        w1 = ((px - x0) * (y2 - y0) - (x2 - x0) * (py - y0)) / area
        # Barycentrics: b1 = w1 (vertex 1), b2 = w0 (vertex 2).
        b0 = 1.0 - w0 - w1
        inside = (b0 >= 0) & (w0 >= 0) & (w1 >= 0)
        if not inside.any():
            continue
        z = b0 * z0 + w1 * z1 + w0 * z2
        block_z = zbuf[min_y:max_y, min_x:max_x]
        visible = inside & (z < block_z)
        if not visible.any():
            continue
        block_z[visible] = z[visible]
        frame[min_y:max_y, min_x:max_x][visible] = colors[f]
    return (frame * 255).astype(np.uint8)


def assert_same_image(mesh, camera=None, width=64, height=48):
    expected = loop_render_mesh(mesh, camera, width, height)
    image = render.render_mesh(mesh, camera, width, height)
    assert image.dtype == np.uint8
    assert image.shape == expected.shape == (height, width, 3)
    assert np.array_equal(image, expected)


def make_mesh(vertices, faces, seed=0) -> TerrainMesh:
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    colors = np.random.default_rng(seed).uniform(0.0, 1.0, (len(faces), 3))
    return TerrainMesh(
        np.asarray(vertices, dtype=np.float64).reshape(-1, 3),
        faces,
        colors,
        np.zeros(len(faces), dtype=np.int64),
    )


@st.composite
def scenes(draw, max_faces, max_size):
    """``(mesh, camera, width, height)``: a random triangle soup with
    duplicated, reversed, degenerate, coplanar and far-off faces."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_vertices = draw(st.integers(3, 16))
    spread = draw(st.sampled_from([0.6, 1.2]))
    vertices = rng.uniform(-spread, spread, (n_vertices, 3))
    if draw(st.booleans()):
        # A coarse grid: coplanar faces and shared edges recur.
        vertices = np.round(vertices * 2.0) / 2.0
    # Vertices far past the footprint put faces (partly) off screen.
    far = rng.random(n_vertices) < draw(st.sampled_from([0.0, 0.2]))
    vertices[far] *= 10.0
    n_faces = draw(st.integers(1, max(1, max_faces // 2)))
    faces = np.argsort(rng.random((n_faces, n_vertices)), axis=1)[:, :3]
    # Faces that repeat a corner have zero area.
    repeat = rng.random(n_faces) < draw(st.sampled_from([0.0, 0.25]))
    faces[repeat, 2] = faces[repeat, 0]
    # Copies tie exactly in depth; reversed copies nearly so.
    copies = faces[rng.integers(0, n_faces, draw(st.integers(0, n_faces)))]
    if draw(st.booleans()):
        copies = copies[:, ::-1]
    faces = np.concatenate([faces, copies])
    rng.shuffle(faces)
    camera = Camera(
        azimuth=draw(st.floats(0.0, 360.0)),
        elevation=draw(st.floats(5.0, 85.0)),
    ).zoomed(draw(st.sampled_from([0.05, 0.3, 1.0, 2.5])))  # < 0.3: behind
    width = draw(st.integers(1, max_size))
    height = draw(st.integers(1, max_size))
    return make_mesh(vertices, faces, seed=n_faces), camera, width, height


@contextmanager
def on_tier(tier):
    """Run ``render_mesh`` on ``tier``, and check that it does."""
    with accel.using(tier):
        assert render._zbuffer_tier() == tier
        yield


@pytest.fixture(autouse=True)
def tier():
    """The pair pass, unless a class pins another tier."""
    with on_tier("vector"):
        yield


# (chunk budget, faces, image side): budgets of 1 and 7 pairs split
# faces and their ties across chunks, so their scenes stay small.
_BUDGETS = [(1, 10, 6), (7, 24, 12), (render._PAIR_BUDGET, 60, 33)]


@pytest.mark.parametrize("budget, max_faces, max_size", _BUDGETS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_random_meshes_match_the_loop(budget, max_faces, max_size, data):
    mesh, camera, width, height = data.draw(scenes(max_faces, max_size))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(render, "_PAIR_BUDGET", budget)
        assert_same_image(mesh, camera, width, height)


@pytest.fixture(scope="module")
def small_terrain():
    # A heightfield-style grid: faces cover a few pixels each.
    n = 12
    ij = np.linspace(-1.0, 1.0, n)
    xv, yv = np.meshgrid(ij, ij)
    zv = 0.5 * np.exp(-3.0 * (xv**2 + yv**2))
    vertices = np.column_stack([xv.ravel(), -yv.ravel(), zv.ravel()])
    idx = np.arange(n * n).reshape(n, n)
    a, b = idx[:-1, :-1].ravel(), idx[:-1, 1:].ravel()
    c, d = idx[1:, :-1].ravel(), idx[1:, 1:].ravel()
    faces = np.concatenate([np.column_stack([a, b, c]),
                            np.column_stack([b, d, c])])
    return make_mesh(vertices, faces)


class TestEdgeCases:
    def test_empty_mesh_is_background(self):
        mesh = make_mesh(np.zeros((0, 3)), np.zeros((0, 3)))
        image = render.render_mesh(mesh, width=5, height=3,
                                   background=(0.0, 0.5, 1.0))
        assert np.array_equal(image, loop_render_mesh(
            mesh, width=5, height=3, background=(0.0, 0.5, 1.0)))
        assert (image == [0, 127, 255]).all()

    @pytest.mark.parametrize("width, height", [
        (1, 1), (1, 9), (9, 1), (33, 17), (17, 33),
    ])
    def test_one_pixel_and_odd_sizes(self, small_terrain, width, height):
        assert_same_image(small_terrain, Camera(), width, height)

    @pytest.mark.parametrize("zoom", [0.05, 0.15, 0.3])
    def test_faces_behind_the_camera(self, small_terrain, zoom):
        camera = Camera(azimuth=20.0, elevation=15.0).zoomed(zoom)
        _, depth = camera.project(small_terrain.vertices, 64, 48)
        assert (depth <= 0).any() and (depth > 0).any()
        assert_same_image(small_terrain, camera)

    @pytest.mark.parametrize("budget", [1, 7, render._PAIR_BUDGET])
    def test_duplicated_face_ties_go_to_the_earliest(self, budget,
                                                     monkeypatch):
        monkeypatch.setattr(render, "_PAIR_BUDGET", budget)
        triangle = [(-0.6, -0.6, 0.1), (0.6, -0.6, 0.1), (0.0, 0.6, 0.1)]
        mesh = make_mesh(triangle, [(0, 1, 2)] * 3)
        mesh.face_colors[:] = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                               (0.0, 0.0, 1.0)]
        image = render.render_mesh(mesh, width=16, height=12)
        covered = (image != 255).any(axis=2)
        assert covered.any()
        assert (image[covered][:, 1:] == 0).all()  # only the first, red
        assert_same_image(mesh, None, 16, 12)

    def test_zero_area_faces(self):
        vertices = [
            (0.0, 0.0, 0.2), (0.5, 0.0, 0.2), (1.0, 0.0, 0.2),  # collinear
            (0.0, 0.5, 0.2),
        ]
        mesh = make_mesh(vertices, [(0, 1, 2), (0, 0, 3), (0, 1, 3)])
        assert_same_image(mesh)

    def test_far_off_vertices_do_not_overflow(self):
        # An axis-aligned camera puts two vertices 1 mm in front of the
        # eye and 1e15 to either side: they project to |x| ~ 6e19
        # pixels, past the int64 range.
        camera = Camera(azimuth=0.0, elevation=0.0)
        mesh = make_mesh([(3.199, 1e15, 0.2), (3.199, -1e15, 0.2),
                          (0.0, 0.0, -0.5)], [(0, 1, 2)])
        xy, depth = camera.project(mesh.vertices, 64, 48)
        assert (depth > 0).all() and np.abs(xy).max() > 2.0**63
        image = render.render_mesh(mesh, camera, 64, 48)
        assert (image != 255).any()
        assert_same_image(mesh, camera)

    @pytest.mark.parametrize("width, height", [(0, 4), (4, 0), (-5, 4)])
    def test_empty_image_rejected(self, small_terrain, width, height):
        with pytest.raises(ValueError, match="at least 1x1"):
            render.render_mesh(small_terrain, width=width, height=height)


def terrain_mesh(pipeline, resolution):
    return build_mesh(
        pipeline.heightfield(resolution),
        intensity_ramp(pipeline.display_tree.scalars),
        z_scale=0.55,
    )


@pytest.fixture(scope="module", params=["kcore", "ktruss"])
def grqc(request):
    """The grqc stand-in's pipeline for one measure, and the loop's
    320x240 image of its resolution-64 mesh (drawn once per module)."""
    pipeline = Pipeline(DatasetSource("grqc"), request.param)
    mesh = terrain_mesh(pipeline, 64)
    return pipeline, mesh, loop_render_mesh(mesh, Camera(), 320, 240)


def test_grqc_stand_in_matches_the_loop(grqc):
    _, mesh, expected = grqc
    image = render.render_mesh(mesh, Camera(), 320, 240)
    assert np.array_equal(image, expected)


# sha256 of the image bytes that ``repro terrain --dataset grqc`` renders
# at its defaults: 640x480, resolution 160, azimuth 35, elevation 38.
_PINNED = {
    "kcore": "11ed6a910d425b07c358321b8a0895a39f867715da5771aad8eb9f4a4f04a0d7",
    "ktruss": "d4bf44c4a2bbceb23e2c1864705a348a4047911a6d4a0499dafad83765f85886",
}


def test_grqc_stand_in_images_are_pinned(grqc):
    pipeline, _, _ = grqc
    camera = Camera(azimuth=35.0, elevation=38.0).zoomed(1.0)
    image = render.render_mesh(terrain_mesh(pipeline, 160), camera, 640, 480)
    digest = hashlib.sha256(image.tobytes()).hexdigest()
    assert digest == _PINNED[pipeline.measure]


@pytest.mark.skipif(native.load() is None,
                    reason="native z-buffer unavailable")
class TestNativeTier(TestEdgeCases):
    """Every case above again, on the C z-buffer (which has no chunks)."""

    @pytest.fixture(autouse=True)
    def tier(self):
        with on_tier("native"):
            yield

    def test_duplicated_face_ties_go_to_the_earliest(self, monkeypatch):
        super().test_duplicated_face_ties_go_to_the_earliest(
            render._PAIR_BUDGET, monkeypatch
        )

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_random_meshes_match_the_loop(self, data):
        mesh, camera, width, height = data.draw(scenes(60, 33))
        assert_same_image(mesh, camera, width, height)

    def test_grqc_stand_in_matches_the_loop(self, grqc):
        test_grqc_stand_in_matches_the_loop(grqc)

    def test_grqc_stand_in_images_are_pinned(self, grqc):
        test_grqc_stand_in_images_are_pinned(grqc)
