"""LOD pyramid coverage: stitching, downsampling, ETag semantics."""

import json

import numpy as np
import pytest

from repro.core import ScalarGraph
from repro.engine import ArtifactCache, DatasetSource, Pipeline
from repro.graph.generators import dynamic_planted_partition
from repro.serve import (
    EvolveSession,
    LODPyramid,
    ServeApp,
    ServerThread,
    tile_etag,
)
from repro.terrain.heightfield import Heightfield, Tile

from serve_client import Client, toy_graph


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
    def test_tiles_are_crops_not_cache_entries(self):
        """A tile is cut from its level's field when asked; serving
        every tile adds nothing to the cache."""
        cache = ArtifactCache()
        pyramid = LODPyramid(kcore_pipeline(cache), tile_size=16, levels=2)
        pyramid.ensure_levels()
        before = (len(cache), cache.stats["puts"])
        for level in range(2):
            field = pyramid.level_field(level)
            per = pyramid.tiles_per_side(level)
            for ty in range(per):
                for tx in range(per):
                    tile = pyramid.tile(level, tx, ty)
                    block = field.crop(ty * 16, tx * 16, 16, 16)
                    assert np.array_equal(tile.height, block.height)
                    assert np.array_equal(tile.node, block.node)
                    assert tile.extent == block.extent
        assert (len(cache), cache.stats["puts"]) == before

    def test_no_tile_reaches_the_cache_directory(
        self, tmp_path, edge_list_file
    ):
        """Every tile at every level and every diff tile of an evolve
        run, served over a cache directory: no tile document is
        written, and a second app over the directory serves the same
        bytes under the same ETags."""
        log = dynamic_planted_partition(
            n_windows=3, community_size=12, noise_per_window=4, seed=0
        )
        log_path = tmp_path / "dyn.tsv"
        log.write(log_path)
        cache_dir = tmp_path / "cache"

        def serve_everything():
            app = ServeApp(
                cache=ArtifactCache(cache_dir), tile_size=16, levels=2
            )
            app.add_dataset("toy", ["kcore"], edge_list=edge_list_file)
            app.add_evolve_session(EvolveSession(
                "demo", str(log_path), origin=log.origin,
                resolution=32, tile_size=16,
            ))
            urls = [
                f"/t/toy/kcore/{level}/{tx}/{ty}"
                for level, per in ((0, 2), (1, 1))
                for ty in range(per) for tx in range(per)
            ]
            urls += [
                f"/evolve/diff/{w}/{tx}/{ty}"
                for w in range(1, log.n_windows)
                for ty in range(2) for tx in range(2)
            ]
            replies = {}
            with ServerThread(app) as server:
                client = Client(server.port)
                for url in urls:
                    status, headers, body = client.get(url)
                    assert status == 200, url
                    replies[url] = (headers["ETag"], body)
            return replies

        first = serve_everything()
        kinds = {
            json.loads(path.read_text()).get("type")
            for path in cache_dir.glob("*.json")
        }
        assert kinds and "tile" not in kinds, kinds
        assert serve_everything() == first

    @pytest.mark.parametrize("budget", [1 << 20, 3 << 20, None])
    def test_cold_funnel_builds_the_tree_once(self, monkeypatch, budget):
        """``ensure_levels`` reads the base level once, before the
        coarser levels' puts can evict it, so a budget smaller than one
        key's levels does not rebuild tree → display → heightfield."""
        import repro.engine.pipeline as pipeline_module

        builds = []
        real = pipeline_module.build_vertex_tree

        def counting(field):
            builds.append(1)
            return real(field)

        monkeypatch.setattr(pipeline_module, "build_vertex_tree", counting)
        cache = ArtifactCache(max_memory_bytes=budget)
        pipeline = Pipeline(DatasetSource("amazon"), "kcore", cache=cache)
        LODPyramid(pipeline, tile_size=64, levels=3).ensure_levels()
        assert len(builds) == 1


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
