"""The static pipeline: stage equivalence with the direct API, sinks,
sources, and the field stage for correlation."""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import (
    EdgeScalarGraph,
    ScalarGraph,
    build_edge_tree,
    build_super_tree,
    build_vertex_tree,
    simplify_tree,
)
from repro.engine import (
    ArtifactCache,
    DatasetSource,
    EdgeListSource,
    GraphSource,
    Pipeline,
    registry,
)
from repro.engine import pipeline as pipeline_module
from repro.graph import from_edges
from repro.graph.io import read_edge_list, write_edge_list
from repro.measures import core_numbers, truss_numbers


@pytest.fixture
def graph():
    return from_edges(
        [(i, j) for i in range(6) for j in range(i + 1, 6)]  # K6
        + [(5, 6), (6, 7), (7, 8)]
    )


def assert_super_equal(a, b):
    np.testing.assert_array_equal(a.parent, b.parent)
    np.testing.assert_array_equal(a.scalars, b.scalars)
    for ma, mb in zip(a.members, b.members):
        np.testing.assert_array_equal(ma, mb)


class TestStageEquivalence:
    def test_vertex_measure_matches_direct_calls(self, graph):
        p = Pipeline(graph, "kcore")
        field = ScalarGraph(graph, core_numbers(graph).astype(float))
        np.testing.assert_array_equal(p.field.scalars, field.scalars)
        ref = build_super_tree(build_vertex_tree(field))
        assert p.kind == "vertex"
        assert_super_equal(p.display_tree, ref)

    def test_edge_measure_matches_direct_calls(self, graph):
        p = Pipeline(graph, "ktruss")
        field = EdgeScalarGraph(graph, truss_numbers(graph).astype(float))
        ref = build_super_tree(build_edge_tree(field))
        assert p.kind == "edge"
        assert isinstance(p.field, EdgeScalarGraph)
        assert_super_equal(p.display_tree, ref)

    def test_bins_match_simplify_tree(self, graph):
        p = Pipeline(graph, "kcore", bins=2)
        raw = build_vertex_tree(
            ScalarGraph(graph, core_numbers(graph).astype(float))
        )
        assert_super_equal(
            p.display_tree, simplify_tree(raw, 2, scheme="quantile")
        )

    def test_explicit_field_source(self, graph):
        field = ScalarGraph(graph, np.arange(graph.n_vertices, dtype=float))
        p = Pipeline(field)
        assert_super_equal(
            p.display_tree, build_super_tree(build_vertex_tree(field))
        )

    def test_explicit_field_rejects_measure(self, graph):
        field = ScalarGraph(graph, np.ones(graph.n_vertices))
        with pytest.raises(ValueError, match="measure must be omitted"):
            Pipeline(field, "kcore")

    def test_unknown_measure_rejected_early(self, graph):
        with pytest.raises(KeyError, match="unknown measure"):
            Pipeline(graph, "nonsense")

    def test_measure_required_for_bare_graph(self, graph):
        with pytest.raises(ValueError, match="measure name"):
            Pipeline(graph)


class TestSources:
    def test_dataset_source(self):
        p = Pipeline(DatasetSource("amazon"), "degree")
        assert p.graph.n_vertices > 0
        assert p.display_tree.n_items == p.graph.n_vertices

    def test_from_edge_list(self, graph, tmp_path):
        path = tmp_path / "g.txt"
        write_edge_list(graph, path)
        p = Pipeline.from_edge_list(str(path), "kcore")
        assert_super_equal(
            p.display_tree, Pipeline(GraphSource(graph), "kcore").display_tree
        )

    def test_edge_list_is_read_once_under_concurrent_loads(
        self, graph, tmp_path, monkeypatch
    ):
        path = tmp_path / "g.txt"
        write_edge_list(graph, path)
        reads = []

        def counting(p):
            reads.append(p)
            return read_edge_list(p)

        monkeypatch.setattr(pipeline_module, "read_edge_list", counting)
        source = EdgeListSource(str(path))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                graphs = list(pool.map(lambda _: source.load(), range(32)))
        finally:
            sys.setswitchinterval(interval)
        assert reads == [str(path)]
        assert all(g is graphs[0] for g in graphs)

    def test_bad_source_type(self):
        with pytest.raises(TypeError, match="source must be"):
            Pipeline([("not", "a"), ("graph", "!")], "kcore")


class TestSinks:
    def test_render(self, graph, tmp_path):
        out = tmp_path / "t.png"
        img = Pipeline(graph, "kcore").render(
            path=out, resolution=24, width=48, height=36
        )
        assert out.exists()
        assert img.shape == (36, 48, 3)

    def test_treemap_and_profile(self, graph, tmp_path):
        p = Pipeline(graph, "kcore")
        assert p.treemap(path=tmp_path / "m.svg").startswith("<svg")
        assert p.profile(path=tmp_path / "p.svg").startswith("<svg")

    def test_peaks(self, graph):
        peaks = Pipeline(graph, "kcore").peaks(count=1)
        # K6 is a 5-core with 6 members.
        assert peaks[0].alpha == 5.0
        assert peaks[0].size == 6

    def test_layout_is_reused(self, graph):
        cache = ArtifactCache()
        p = Pipeline(graph, "kcore", cache=cache)
        assert p.layout() is p.layout()
        p2 = Pipeline(graph, "kcore", cache=cache)
        assert p2.layout() is p.layout()  # memory tier shares layouts

    def test_heightfield_reused_across_renders(self, graph):
        p = Pipeline(graph, "kcore")
        hf = p.heightfield(24)
        assert p.heightfield(24) is hf  # rotated-camera renders reuse it
        assert p.heightfield(32) is not hf  # other resolutions don't
        p.render(resolution=24, width=48, height=36)
        assert p.heightfield(24) is hf


class TestMeasureField:
    def test_correlation_fields_cached(self, graph):
        cache = ArtifactCache()
        p = Pipeline(graph, "degree", cache=cache)
        d1 = p.measure_field("degree")
        d2 = p.measure_field("degree")
        np.testing.assert_array_equal(d1, d2)
        assert cache.stats["hits"] >= 1
        pr = p.measure_field("pagerank")
        assert len(pr) == graph.n_vertices

    def test_edge_measure_rejected(self, graph):
        with pytest.raises(ValueError, match="edge-based"):
            Pipeline(graph, "degree").measure_field("ktruss")

    def test_field_stage_shared_with_main_measure(self, graph):
        cache = ArtifactCache()
        p = Pipeline(graph, "kcore", cache=cache)
        p.display_tree  # computes the kcore field stage
        before = cache.stats["misses"]
        p.measure_field("kcore")
        assert cache.stats["misses"] == before  # same stage key: a hit
