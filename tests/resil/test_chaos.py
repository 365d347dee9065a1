"""Chaos suite: inject scheduled faults into real builds and assert the
outputs are *node-identical* to a fault-free run — resilience must heal,
never silently change results."""

import asyncio

import numpy as np
import pytest

from repro.accel.tree import rank_order, vertex_tree_parents
from repro.core import ScalarGraph, build_vertex_tree
from repro.engine import ArtifactCache, EdgeListSource, Pipeline, registry
from repro.graph import generators
from repro.graph.io import write_edge_list
from repro.resil import faults
from repro.resil.retry import InjectedFault
from repro.serve import StageRunner


@pytest.fixture(scope="module")
def graph():
    return generators.powerlaw_cluster(300, 2, 0.3, seed=11)


@pytest.fixture(scope="module")
def scalars(graph):
    return registry.compute("degree", graph)


@pytest.fixture(scope="module")
def fields(graph):
    return [
        registry.compute(name, graph)
        for name in ("degree", "kcore", "pagerank")
    ]


@pytest.fixture(scope="module")
def reference_tree(graph, scalars):
    return build_vertex_tree(ScalarGraph(graph, scalars))


@pytest.fixture(scope="module")
def edge_file(graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("chaos") / "graph.txt"
    write_edge_list(graph, path)
    return path


def assert_identical(tree, reference):
    assert np.array_equal(tree.parent, reference.parent)
    assert np.array_equal(tree.scalars, reference.scalars)


class TestRunnerJobs:
    """One vertex-tree build per field, each a :class:`StageRunner`
    job: retry and give-up must leave every parent array exactly as
    :func:`build_vertex_tree` makes it."""

    @staticmethod
    def build_all(runner, graph, fields):
        pairs = graph.edge_array()
        jobs = [
            (graph.n_vertices, pairs, rank_order(scalars)[1])
            for scalars in fields
        ]

        async def build_each():
            return [
                await runner.run(f"tree:{i}", vertex_tree_parents, *job)
                for i, job in enumerate(jobs)
            ]

        parents = asyncio.run(build_each())
        for parent, scalars in zip(parents, fields):
            reference = build_vertex_tree(ScalarGraph(graph, scalars))
            assert np.array_equal(parent, reference.parent)

    def test_task_faults_heal_to_identical_trees(
        self, graph, fields, fault_spec
    ):
        fault_spec("task_fail:1,3;task_delay:2:0.01")
        runner = StageRunner()
        try:
            self.build_all(runner, graph, fields)
        finally:
            runner.shutdown()
        assert runner.stats["retries"] == 2
        assert runner.stats["errors"] == 0
        assert faults.snapshot()["fired"]["task_fail"] == 2

    def test_unbounded_faults_eventually_give_up(
        self, graph, fields, fault_spec
    ):
        fault_spec("task_fail:*")
        runner = StageRunner()
        runner.retry.base_delay = 0.0
        try:
            with pytest.raises(InjectedFault) as excinfo:
                self.build_all(runner, graph, fields)
        finally:
            runner.shutdown()
        # The default policy: four attempts on the first tree, then
        # the fault stands.
        assert excinfo.value.site == "task_fail"
        assert runner.retry.max_attempts == 4
        assert runner.stats["retries"] == 3
        assert runner.stats["errors"] == 1


class TestStageRunnerChaos:
    def test_run_retries_injected_fault(self, fault_spec):
        fault_spec("task_fail:1")
        runner = StageRunner()
        try:
            result = asyncio.run(runner.run("k", lambda: "healed"))
        finally:
            runner.shutdown()
        assert result == "healed"
        assert runner.stats == {
            **runner.stats, "builds": 1, "errors": 0, "retries": 1,
        }


class TestPipelineChaos:
    def test_stage_fault_retried_inside_stage(
        self, edge_file, reference_tree, fault_spec
    ):
        fault_spec("stage_fail:1")
        pipeline = Pipeline(EdgeListSource(edge_file), "degree")
        assert_identical(pipeline.tree, reference_tree)

    def test_cache_corruption_is_a_miss_not_a_crash(
        self, edge_file, tmp_path, fault_spec
    ):
        # First process run writes envelopes, the scheduled fault
        # truncates one on disk right after the atomic rename.
        fault_spec("cache_corrupt:1")
        cache = ArtifactCache(tmp_path)
        first = Pipeline(EdgeListSource(edge_file), "degree", cache=cache)
        tree = first.tree
        faults.configure(None)
        # A fresh cache over the same directory (same process restart
        # semantics): the corrupted envelope must read as a miss and be
        # deleted, and the rebuild must agree with the first run.
        reread = ArtifactCache(tmp_path)
        second = Pipeline(EdgeListSource(edge_file), "degree", cache=reread)
        assert np.array_equal(second.tree.parent, tree.parent)
        assert reread.stats["corrupt"] >= 1


class TestNativeCompileChaos:
    def test_scheduled_compile_failure_soft_falls_back(self, fault_spec):
        native = pytest.importorskip("repro.accel.native")
        fault_spec("compile_fail:1")
        with pytest.raises(
            native._Unavailable, match="scheduled compile failure"
        ):
            native._load_impl()
