"""Property: rasterization ≡ the per-node level-major painting oracle.

Both paint the same canonical order (level-major, node id within a
level, full discs before sub-pixel stamps), so height and node grids
must be byte-identical — the point-stamp batching in particular must
reproduce the sequential compare-and-set winner per cell.  Each case
runs on both tiers (rasterization itself has one path; the layout and
tree it consumes come from the tier in force).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel
from repro.accel.raster import forest_depths, stamp_points
from repro.core import ScalarGraph, build_super_tree, build_vertex_tree
from repro.graph.builders import from_edge_array
from repro.terrain import layout_tree, rasterize

from accel_strategies import scalar_fields
from oracles import oracle_rasterize

TIERS = ("vector", "native")


@settings(max_examples=30, deadline=None)
@given(scalar_fields(), st.sampled_from([16, 40, 96]))
def test_rasterize_identical_across_backends(field, resolution):
    graph, scalars = field
    for tier in TIERS:
        with accel.using(tier):
            tree = build_super_tree(
                build_vertex_tree(ScalarGraph(graph, scalars))
            )
            layout = layout_tree(tree)
            got = rasterize(layout, resolution=resolution)
        naive = oracle_rasterize(layout, resolution=resolution)
        assert np.array_equal(naive.height, got.height), tier
        assert np.array_equal(naive.node, got.node), tier
        assert naive.extent == got.extent
        assert naive.base == got.base


def test_star_of_point_leaves_identical():
    """A star graph maximizes sub-pixel leaf discs — the batched-stamp
    hot path — at a resolution coarse enough that leaves collide."""
    n = 120
    pairs = np.array([(0, i) for i in range(1, n)], dtype=np.int64)
    graph = from_edge_array(pairs, n_vertices=n)
    rng = np.random.default_rng(0)
    scalars = np.concatenate([[0.0], rng.integers(1, 4, n - 1)]).astype(float)
    tree = build_super_tree(build_vertex_tree(ScalarGraph(graph, scalars)))
    layout = layout_tree(tree)
    for resolution in (8, 16, 64):
        naive = oracle_rasterize(layout, resolution=resolution)
        vector = rasterize(layout, resolution=resolution)
        assert np.array_equal(naive.height, vector.height)
        assert np.array_equal(naive.node, vector.node)


class TestForestDepths:
    def test_chain_and_forest(self):
        parent = np.array([-1, 0, 1, -1, 3, 3])
        assert np.array_equal(forest_depths(parent), [0, 1, 2, 0, 1, 1])

    def test_cycle_rejected(self):
        with np.testing.assert_raises(ValueError):
            forest_depths(np.array([1, 0]))

    def test_empty(self):
        assert len(forest_depths(np.zeros(0, dtype=np.int64))) == 0


class TestStampPoints:
    def _grids(self):
        height = np.zeros((4, 4))
        node = np.full((4, 4), -1, dtype=np.int64)
        return height, node

    def test_highest_scalar_wins(self):
        height, node = self._grids()
        stamp_points(
            height, node,
            rows=np.array([1, 1, 1]), cols=np.array([2, 2, 2]),
            ids=np.array([7, 8, 9]),
            scalars=np.array([5.0, 9.0, 3.0]),
        )
        assert height[1, 2] == 9.0 and node[1, 2] == 8

    def test_tie_goes_to_latest(self):
        height, node = self._grids()
        stamp_points(
            height, node,
            rows=np.array([0, 0]), cols=np.array([0, 0]),
            ids=np.array([3, 4]), scalars=np.array([2.0, 2.0]),
        )
        assert node[0, 0] == 4

    def test_below_standing_height_skipped(self):
        height, node = self._grids()
        height[2, 2] = 10.0
        node[2, 2] = 99
        stamp_points(
            height, node,
            rows=np.array([2]), cols=np.array([2]),
            ids=np.array([1]), scalars=np.array([4.0]),
        )
        assert height[2, 2] == 10.0 and node[2, 2] == 99

    def test_empty_noop(self):
        height, node = self._grids()
        stamp_points(
            height, node,
            rows=np.zeros(0, dtype=np.int64),
            cols=np.zeros(0, dtype=np.int64),
            ids=np.zeros(0, dtype=np.int64),
            scalars=np.zeros(0),
        )
        assert (node == -1).all()
