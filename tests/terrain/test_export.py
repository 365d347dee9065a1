"""Unit tests for mesh export and turntable rendering."""

import hashlib

import numpy as np
import pytest

from repro.core import ScalarGraph, build_super_tree, build_vertex_tree
from repro.graph import from_edges
from repro.terrain import Camera, build_mesh, layout_tree, rasterize
from repro.terrain.export import export_obj, export_svg3d, orbit_frames


@pytest.fixture(scope="module")
def mesh():
    graph = from_edges([(0, 1), (1, 2), (2, 3)])
    sg = ScalarGraph(graph, [4.0, 3.0, 2.0, 1.0])
    tree = build_super_tree(build_vertex_tree(sg))
    hf = rasterize(layout_tree(tree), resolution=24)
    return build_mesh(hf)


class TestObjExport:
    def test_files_written(self, mesh, tmp_path):
        path = export_obj(mesh, tmp_path / "terrain.obj")
        assert path.exists()
        assert path.with_suffix(".mtl").exists()

    def test_vertex_and_face_counts(self, mesh, tmp_path):
        path = export_obj(mesh, tmp_path / "t.obj")
        text = path.read_text()
        n_v = sum(1 for line in text.splitlines() if line.startswith("v "))
        n_f = sum(1 for line in text.splitlines() if line.startswith("f "))
        assert n_v == len(mesh.vertices)
        assert n_f == mesh.n_faces

    def test_face_indices_one_based_and_valid(self, mesh, tmp_path):
        path = export_obj(mesh, tmp_path / "t.obj")
        for line in path.read_text().splitlines():
            if line.startswith("f "):
                idx = [int(tok) for tok in line.split()[1:]]
                assert all(1 <= i <= len(mesh.vertices) for i in idx)

    def test_materials_cover_face_colors(self, mesh, tmp_path):
        path = export_obj(mesh, tmp_path / "t.obj")
        mtl = path.with_suffix(".mtl").read_text()
        n_materials = mtl.count("newmtl")
        n_distinct = len(np.unique(np.round(mesh.face_colors, 4), axis=0))
        assert n_materials == n_distinct


class TestSvg3D:
    def test_renders_polygons(self, mesh, tmp_path):
        svg = export_svg3d(mesh, width=160, height=120,
                           path=tmp_path / "t.svg")
        assert svg.count("<polygon") > 0
        assert (tmp_path / "t.svg").exists()

    def test_camera_changes_output(self, mesh):
        a = export_svg3d(mesh, camera=Camera(azimuth=10), width=80, height=60)
        b = export_svg3d(mesh, camera=Camera(azimuth=200), width=80, height=60)
        assert a != b

    @pytest.mark.parametrize("camera, ambient, digest", [
        (Camera(), 0.45,
         "7da70a92428ca211de7e54c9c526a29671f0d0779e9026beb8f4a1c9395152aa"),
        (Camera(azimuth=200, elevation=60), 0.2,
         "b299c392d8d09d92ba44ad488dd573410ea5e31332140bfacd6a53081da5fead"),
    ])
    def test_output_matches_recorded_digest(self, mesh, camera, ambient,
                                            digest):
        # Pins the SVG bytes: export_svg3d shares render_mesh's face
        # shading, so a change there must not reach the SVG unnoticed.
        svg = export_svg3d(mesh, camera=camera, width=160, height=120,
                           ambient=ambient)
        assert hashlib.sha256(svg.encode()).hexdigest() == digest


class TestOrbit:
    def test_frame_count_and_shape(self, mesh):
        frames = orbit_frames(mesh, n_frames=4, width=64, height=48)
        assert len(frames) == 4
        assert all(f.shape == (48, 64, 3) for f in frames)

    def test_frames_differ(self, mesh):
        frames = orbit_frames(mesh, n_frames=3, width=64, height=48)
        assert not np.array_equal(frames[0], frames[1])

    def test_writes_files(self, mesh, tmp_path):
        orbit_frames(mesh, n_frames=2, width=32, height=24,
                     directory=tmp_path)
        assert (tmp_path / "frame_000.png").exists()
        assert (tmp_path / "frame_001.png").exists()

    def test_invalid_count(self, mesh):
        with pytest.raises(ValueError):
            orbit_frames(mesh, n_frames=0)
