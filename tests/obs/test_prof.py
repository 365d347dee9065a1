"""The sampling profiler: collapsed stacks, span scoping across
thread pools, flamegraph rendering, and the overhead bound."""

import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from repro.core import ScalarGraph, build_super_tree, build_vertex_tree
from repro.graph import generators
from repro.measures import core_numbers
from repro.obs import prof, trace


def _busy(seconds=0.15):
    """A CPU-bound, recognizably named workload for the sampler.

    The arithmetic stays inline (no sum()/genexpr) so samples attribute
    their leaf frame to _busy itself, not an anonymous <genexpr>.
    """
    deadline = time.perf_counter() + seconds
    acc = 0
    while time.perf_counter() < deadline:
        for i in range(500):
            acc += i * i
    return acc


def _capture_job(seconds):
    """Module-level (picklable) job that profiles itself via capture."""
    with prof.capture("prof.job", hz=200) as cap:
        _busy(seconds)
    return cap.profile.n_samples


class TestSamplingProfiler:
    def test_samples_a_busy_function(self):
        with prof.SamplingProfiler(hz=200) as profiler:
            _busy(0.2)
        profile = profiler.profile()
        assert profile.n_samples >= 10, profile
        assert 0.15 <= profile.duration_s < 5.0, profile
        # The busy function dominates self time and appears in stacks.
        text = profile.collapsed()
        assert "_busy" in text, text[:500]
        top = dict(profile.top(5))
        assert any("_busy" in label for label in top), top

    def test_collapsed_format(self):
        with prof.SamplingProfiler(hz=200) as profiler:
            _busy(0.1)
        for line in profiler.profile().collapsed().splitlines():
            stack, _, count = line.rpartition(" ")
            assert stack and count.isdigit(), line
            assert all(frame for frame in stack.split(";")), line

    def test_stop_is_idempotent_and_restartable(self):
        profiler = prof.SamplingProfiler(hz=200).start()
        _busy(0.05)
        first = profiler.stop()
        again = profiler.stop()
        assert again.n_samples == first.n_samples

    def test_merge_adds_counts(self):
        a = prof.Profile({"x;y": 3}, n_samples=3, duration_s=1.0)
        b = prof.Profile({"x;y": 2, "x;z": 1}, n_samples=3, duration_s=1.0)
        merged = a.merge(b)
        assert merged.counts == {"x;y": 5, "x;z": 1}
        assert merged.n_samples == 6


class TestContinuousProfiler:
    def test_window_slices_by_wall_time(self):
        cont = prof.ContinuousProfiler(hz=100, capacity=512)
        cont.start()
        try:
            t0 = time.time()
            _busy(0.15)
            t1 = time.time()
            _busy(0.15)
        finally:
            cont.stop()
        inside = cont.window(t0, t1)
        everything = cont.profile()
        assert inside.n_samples > 0
        assert inside.n_samples < everything.n_samples
        assert cont.window(t0 - 100.0, t0 - 99.0).n_samples == 0


class TestSpanScopedCapture:
    def test_capture_attaches_summary_to_span(self, ring):
        with prof.capture("prof.unit", hz=200, tag="t") as cap:
            _busy(0.1)
        assert cap.profile.n_samples > 0
        record = next(r for r in ring.snapshot() if r["name"] == "prof.unit")
        assert record["attrs"]["samples"] == cap.profile.n_samples
        assert record["attrs"]["stacks"] == len(cap.profile.counts)
        assert record["attrs"]["tag"] == "t"
        top = record["attrs"]["top"]
        assert top and all(
            isinstance(label, str) and count > 0 for label, count in top
        )

    def test_capture_parents_under_enclosing_span(self, ring):
        with trace.span("outer"):
            with prof.capture("prof.inner", hz=200):
                _busy(0.05)
        records = {r["name"]: r for r in ring.snapshot()}
        assert records["prof.inner"]["parent"] == records["outer"]["id"]

    def test_capture_in_worker_threads_parents_correctly(self, ring):
        """StageRunner thread mode propagates the submitting context, so
        captures in worker threads nest under the submitting span."""
        import asyncio

        from repro.serve.workers import StageRunner

        async def fanout():
            with trace.span("fanout"):
                await asyncio.gather(*(
                    runner.run(f"job{i}", _capture_job, 0.05)
                    for i in range(2)
                ))

        runner = StageRunner()
        try:
            asyncio.run(fanout())
        finally:
            runner.shutdown()
        records = ring.snapshot()
        fanout = next(r for r in records if r["name"] == "fanout")
        jobs = [r for r in records if r["name"] == "prof.job"]
        assert len(jobs) == 2
        assert all(r["parent"] == fanout["id"] for r in jobs)
        assert all(r["attrs"]["samples"] > 0 for r in jobs)


class TestFlamegraph:
    def _profile(self):
        with prof.SamplingProfiler(hz=200) as profiler:
            _busy(0.1)
        return profiler.profile()

    def test_svg_is_well_formed(self):
        svg = prof.flamegraph_svg(self._profile(), title="unit test")
        root = ET.fromstring(svg)
        assert root.tag == "{http://www.w3.org/2000/svg}svg"
        rects = root.findall(".//{http://www.w3.org/2000/svg}rect")
        assert rects, "flamegraph has no frames"
        assert "unit test" in svg

    def test_svg_is_self_contained(self):
        svg = prof.flamegraph_svg(self._profile())
        assert "<script" not in svg and "http-equiv" not in svg
        assert 'href="http' not in svg

    def test_accepts_raw_counts_dict(self):
        svg = prof.flamegraph_svg({"a;b": 5, "a;c": 3})
        root = ET.fromstring(svg)
        texts = [
            t.text for t in root.iter("{http://www.w3.org/2000/svg}text")
        ]
        assert any(t and "a" in t for t in texts)

    def test_empty_profile_renders(self):
        svg = prof.flamegraph_svg({})
        assert ET.fromstring(svg).tag.endswith("svg")


class TestOverheadBound:
    def test_overhead_under_five_percent(self):
        """The ISSUE bound: sampling at the default 97 Hz costs <5% on a
        construction workload (~bench_table2 tiny shape)."""
        graph = generators.powerlaw_cluster(400, 3, 0.3, seed=7)
        field = ScalarGraph(
            graph, core_numbers(graph).astype(np.float64)
        )

        def workload():
            for __ in range(3):
                build_super_tree(build_vertex_tree(field))

        def best_of(fn, rounds=5):
            times = []
            for __ in range(rounds):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        workload()  # warm caches/JIT-free but import paths settle
        baseline = best_of(workload)

        def profiled():
            with prof.SamplingProfiler(hz=prof.DEFAULT_HZ):
                workload()

        timed = best_of(profiled)
        # 5% relative plus a small absolute slack so a sub-ms scheduler
        # hiccup can't flake a bound that is really about steady-state.
        assert timed <= baseline * 1.05 + 0.005, (
            f"profiler overhead {timed / baseline - 1:.1%} "
            f"(baseline {baseline:.4f}s, profiled {timed:.4f}s)"
        )
