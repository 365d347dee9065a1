"""Signed terrain diffs and the tiles cut from them."""

import numpy as np
import pytest

from repro.evolve import DiffTiler, diff_heightfield, frames_from_rows
from repro.graph.generators import dynamic_planted_partition
from repro.terrain.heightfield import Heightfield, Tile


def _field(height, node=None):
    height = np.asarray(height, dtype=np.float64)
    if node is None:
        node = np.where(height > 0, 0, -1).astype(np.int64)
    return Heightfield(height, node, (0.0, 0.0, 1.0, 1.0), 0.0)


class TestDiffHeightfield:
    def test_identical_fields_diff_to_zero(self):
        a = _field([[1.0, 2.0], [0.0, 3.0]])
        d = diff_heightfield(a, a)
        assert not d.height.any()

    def test_signed_change(self):
        prev = _field([[1.0, 2.0], [0.0, 0.0]])
        cur = _field([[3.0, 1.0], [0.0, 0.0]])
        d = diff_heightfield(prev, cur)
        assert d.height[0, 0] == 2.0
        assert d.height[0, 1] == -1.0
        assert d.height[1, 1] == 0.0

    def test_node_prefers_current_then_previous(self):
        prev = Heightfield(
            np.array([[1.0, 0.0]]), np.array([[7, -1]]),
            (0.0, 0.0, 1.0, 1.0), 0.0,
        )
        cur = Heightfield(
            np.array([[0.0, 2.0]]), np.array([[-1, 9]]),
            (0.0, 0.0, 1.0, 1.0), 0.0,
        )
        d = diff_heightfield(prev, cur)
        assert d.node[0, 0] == 7  # vanished peak keeps its old owner
        assert d.node[0, 1] == 9

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            diff_heightfield(_field([[1.0]]), _field([[1.0, 2.0]]))


@pytest.fixture(scope="module")
def frames():
    log = dynamic_planted_partition(n_windows=4, seed=2)
    return list(frames_from_rows(
        log.rows, log.n_vertices, origin=log.origin
    ))


class TestDiffTiler:
    def test_resolution_must_tile_evenly(self):
        with pytest.raises(ValueError):
            DiffTiler(resolution=100, tile_size=64)

    def test_diff_needs_both_windows(self, frames):
        tiler = DiffTiler(resolution=128, tile_size=64)
        tiler.add_frame(frames[0])
        with pytest.raises(KeyError):
            tiler.diff(1)
        with pytest.raises(KeyError):
            tiler.heightfield(3)

    def test_tiles_reassemble_the_diff_field(self, frames):
        tiler = DiffTiler(resolution=128, tile_size=64)
        for f in frames[:2]:
            tiler.add_frame(f)
        field = tiler.diff(1)
        assert field.height.shape == (128, 128)
        per = tiler.tiles_per_side
        assert per == 2
        rebuilt = np.zeros_like(field.height)
        for ty in range(per):
            for tx in range(per):
                tile = tiler.tile(1, tx, ty)
                assert isinstance(tile, Tile)
                assert tile.height.shape == (64, 64)
                rebuilt[
                    ty * 64:(ty + 1) * 64, tx * 64:(tx + 1) * 64
                ] = tile.height
        assert np.array_equal(rebuilt, field.height)

    def test_out_of_grid_tile_rejected(self, frames):
        tiler = DiffTiler(resolution=128, tile_size=64)
        for f in frames[:2]:
            tiler.add_frame(f)
        with pytest.raises(KeyError):
            tiler.tile(1, 2, 0)

    def test_summary_counts_signed_cells(self, frames):
        tiler = DiffTiler(resolution=128, tile_size=64)
        for f in frames[:2]:
            tiler.add_frame(f)
        s = tiler.summary(1)
        assert s["window"] == 1
        assert s["cells_raised"] >= 0 and s["cells_lowered"] >= 0
        assert s["max_rise"] >= 0.0 and s["max_drop"] >= 0.0
        delta = tiler.diff(1).height
        assert s["cells_raised"] == int(np.count_nonzero(delta > 0))
        assert s["cells_lowered"] == int(np.count_nonzero(delta < 0))

    def test_tiles_are_crops_of_the_diff(self, frames):
        """A tile cut from the two frames' fields is byte-identical to
        the same crop of the whole diff field."""
        tiler = DiffTiler(resolution=128, tile_size=64)
        for f in frames[:3]:
            tiler.add_frame(f)
        for window in (1, 2):
            field = tiler.diff(window)
            for ty in range(2):
                for tx in range(2):
                    block = field.crop(ty * 64, tx * 64, 64, 64)
                    want = Tile(
                        0, tx, ty, block.height, block.node, block.extent,
                        0.0,
                    )
                    got = tiler.tile(window, tx, ty)
                    assert got.to_bytes() == want.to_bytes()
