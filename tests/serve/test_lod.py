"""LOD pyramid coverage: stitching, downsampling, ETag semantics."""

import numpy as np
import pytest

from repro.core import ScalarGraph
from repro.engine import ArtifactCache, Pipeline
from repro.serve import LODPyramid, tile_etag
from repro.terrain.heightfield import Heightfield, Tile

from serve_client import toy_graph


def kcore_pipeline(cache=None, scalars=None):
    from repro.measures import core_numbers

    graph = toy_graph()
    values = (
        core_numbers(graph).astype(float) if scalars is None else scalars
    )
    return Pipeline(
        ScalarGraph(graph, values),
        cache=cache if cache is not None else ArtifactCache(),
    )


@pytest.fixture
def pyramid():
    return LODPyramid(kcore_pipeline(), tile_size=16, levels=3)


class TestGeometry:
    def test_base_resolution(self, pyramid):
        assert pyramid.base_resolution == 64
        assert [pyramid.tiles_per_side(level) for level in range(3)] == [
            4, 2, 1,
        ]
        assert pyramid.level_resolution(2) == 16

    def test_validation(self, pyramid):
        with pytest.raises(KeyError):
            pyramid.tile(3, 0, 0)
        with pytest.raises(KeyError):
            pyramid.tile(0, 4, 0)
        with pytest.raises(KeyError):
            pyramid.tile(1, 0, -1)
        with pytest.raises(ValueError):
            LODPyramid(kcore_pipeline(), tile_size=7)
        with pytest.raises(ValueError):
            LODPyramid(kcore_pipeline(), levels=0)


class TestStitching:
    def test_level0_bit_identical_to_full_rasterize(self, pyramid):
        """The central LOD contract: level-0 tiles ARE the max-res
        rasterization, cut up — stitching loses nothing."""
        full = pyramid.pipeline.heightfield(pyramid.base_resolution)
        stitched = pyramid.stitch(0)
        assert np.array_equal(stitched.height, full.height)
        assert np.array_equal(stitched.node, full.node)
        assert stitched.extent == full.extent
        assert stitched.base == full.base

    def test_coarser_levels_stitch_to_their_field(self, pyramid):
        for level in (1, 2):
            field = pyramid.level_field(level)
            stitched = pyramid.stitch(level)
            assert np.array_equal(stitched.height, field.height)
            assert np.array_equal(stitched.node, field.node)

    def test_tile_extents_partition_the_world(self, pyramid):
        base = pyramid.level_field(0)
        left = pyramid.tile(0, 0, 0)
        right = pyramid.tile(0, 1, 0)
        assert left.extent[2] == pytest.approx(right.extent[0])
        assert left.extent[0] == pytest.approx(base.extent[0])


class TestDownsampling:
    def test_deterministic(self):
        a = LODPyramid(kcore_pipeline(), tile_size=16, levels=3)
        b = LODPyramid(kcore_pipeline(), tile_size=16, levels=3)
        for level in range(3):
            assert np.array_equal(
                a.level_field(level).height, b.level_field(level).height
            )
            assert np.array_equal(
                a.level_field(level).node, b.level_field(level).node
            )

    def test_max_pooling_preserves_peaks(self, pyramid):
        summit = pyramid.level_field(0).height.max()
        for level in range(1, 3):
            assert pyramid.level_field(level).height.max() == summit

    def test_downsample_blocks(self):
        height = np.arange(16, dtype=float).reshape(4, 4)
        node = np.arange(16, dtype=np.int64).reshape(4, 4)
        field = Heightfield(height, node, (0.0, 0.0, 1.0, 1.0), -1.0)
        down = field.downsample()
        # Each 2x2 block keeps its max (bottom-right in an arange grid).
        assert down.height.tolist() == [[5.0, 7.0], [13.0, 15.0]]
        assert down.node.tolist() == [[5, 7], [13, 15]]
        with pytest.raises(ValueError):
            down.downsample().downsample()  # 1x1 cannot pool further

    def test_crop_extent_roundtrip(self):
        height = np.arange(16, dtype=float).reshape(4, 4)
        node = np.arange(16, dtype=np.int64).reshape(4, 4)
        field = Heightfield(height, node, (0.0, 0.0, 4.0, 4.0), -1.0)
        block = field.crop(2, 1, 2, 2)
        assert block.extent == (1.0, 2.0, 3.0, 4.0)
        assert block.height.tolist() == [[9.0, 10.0], [13.0, 14.0]]
        # A cell's world centre is identical through the crop.
        assert block.grid_to_world(0, 0) == field.grid_to_world(2, 1)
        with pytest.raises(ValueError):
            field.crop(3, 3, 2, 2)


class TestETags:
    def test_etag_stable_across_processes_worth_of_rebuilds(self):
        """Same graph + field => byte-identical payload => same ETag."""
        a = LODPyramid(kcore_pipeline(), tile_size=16, levels=2)
        b = LODPyramid(kcore_pipeline(), tile_size=16, levels=2)
        assert a.tile_payload(0, 1, 1) == b.tile_payload(0, 1, 1)

    def test_etag_changes_iff_field_changes(self):
        from repro.measures import core_numbers

        base = core_numbers(toy_graph()).astype(float)
        changed = base.copy()
        changed[8] = 9.0  # raise the tail's tip into a new summit
        a = LODPyramid(kcore_pipeline(), tile_size=16, levels=2)
        b = LODPyramid(
            kcore_pipeline(scalars=changed), tile_size=16, levels=2
        )
        same = LODPyramid(kcore_pipeline(scalars=base), tile_size=16, levels=2)
        tile = (0, 0, 0)
        assert a.tile_payload(*tile)[1] == same.tile_payload(*tile)[1]
        assert a.tile_payload(*tile)[1] != b.tile_payload(*tile)[1]

    def test_etag_is_strong_quoted_content_hash(self, pyramid):
        payload, etag = pyramid.tile_payload(0, 0, 0)
        assert etag.startswith('"') and etag.endswith('"')
        assert etag == tile_etag(payload)


class TestCaching:
    def test_tiles_are_cached_stages(self):
        cache = ArtifactCache()
        pyramid = LODPyramid(kcore_pipeline(cache), tile_size=16, levels=2)
        pyramid.tile(0, 0, 0)
        misses = cache.stats["misses"]
        pyramid.tile(0, 0, 0)
        assert cache.stats["misses"] == misses  # pure hit the second time

    def test_tiles_persist_to_disk(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        pyramid = LODPyramid(kcore_pipeline(cache), tile_size=16, levels=2)
        key = pyramid.tile_cache_key(1, 0, 0)
        tile = pyramid.tile(1, 0, 0)
        assert (tmp_path / f"{key}.json").exists()
        # A second cache (another process) reloads the identical tile.
        reloaded = ArtifactCache(tmp_path).get(key)
        assert isinstance(reloaded, Tile)
        assert reloaded == tile


class TestTileWireFormat:
    def test_roundtrip(self, pyramid):
        tile = pyramid.tile(1, 1, 0)
        again = Tile.from_bytes(tile.to_bytes())
        assert again == tile
        assert again.heightfield().extent == tile.extent

    def test_corruption_rejected(self, pyramid):
        payload = pyramid.tile(0, 0, 0).to_bytes()
        with pytest.raises(ValueError):
            Tile.from_bytes(payload[:-8])
        with pytest.raises(ValueError):
            Tile.from_bytes(b"JUNK" + payload)
