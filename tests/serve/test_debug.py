"""The serve debug surfaces: slow-request exemplars, the metrics
snapshot ring, dashboard rendering, and the /dash + /debug/* routes."""

import http.client
import json
import threading
import time
import xml.etree.ElementTree as ET

import pytest

from repro.obs import metrics as obs_metrics
from repro.obs import prof as obs_prof
from repro.serve import ServeApp, ServerThread
from repro.serve import debug as serve_debug
from repro.serve.debug import (
    MetricsSnapshotRing,
    SlowRequestStore,
    render_dash,
    scalar_snapshot,
    sparkline_svg,
)


def get(port, url):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("GET", url)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


class TestScalarSnapshot:
    def test_flattens_registry_shapes(self):
        registry = obs_metrics.Registry()
        counter = registry.counter("t_hits_total", "hits")
        counter.inc()
        counter.inc()
        gauge = registry.gauge("t_level", "level")
        gauge.set(7.0)
        histogram = registry.histogram(
            "t_seconds", "latency", buckets=(0.1, 1.0)
        )
        histogram.observe(0.05)
        histogram.observe(0.5)
        snapshot = scalar_snapshot(registry)
        assert snapshot["t_hits_total"] == 2.0
        assert snapshot["t_level"] == 7.0
        assert snapshot["t_seconds_count"] == 2.0
        assert snapshot["t_seconds_sum"] == pytest.approx(0.55)

    def test_labelled_series_sum_over_children(self):
        registry = obs_metrics.Registry()
        counter = registry.counter(
            "t_status_total", "by status", labelnames=("status",)
        )
        counter.inc(status="200")
        counter.inc(status="200")
        counter.inc(status="404")
        assert scalar_snapshot(registry)["t_status_total"] == 3.0


class TestMetricsSnapshotRing:
    def test_sample_and_series(self):
        ring = MetricsSnapshotRing(capacity=4, interval_s=999)
        ring.sample()
        ring.sample()
        assert len(ring) == 2
        names = ring.names()
        assert "repro_serve_uptime_seconds" in names
        series = ring.series(names[0])
        assert len(series) == 2
        assert series[0][0] <= series[1][0]

    def test_ring_is_bounded(self):
        ring = MetricsSnapshotRing(capacity=3, interval_s=999)
        for __ in range(10):
            ring.sample()
        assert len(ring) == 3

    def test_background_sampler_start_stop(self):
        ring = MetricsSnapshotRing(capacity=16, interval_s=0.02)
        ring.start()
        try:
            deadline = time.time() + 5.0
            while len(ring) < 2 and time.time() < deadline:
                time.sleep(0.02)
        finally:
            ring.stop()
        assert len(ring) >= 2
        assert ring._thread is None  # stopped cleanly, restartable


class TestSlowRequestStore:
    def _observe(self, store, dur_s, **kwargs):
        defaults = dict(
            path="/t/x", request_id="r1", status=200,
            t0_wall=time.time() - dur_s, dur_s=dur_s,
        )
        defaults.update(kwargs)
        return store.observe(**defaults)

    def test_fast_requests_are_not_captured(self):
        store = SlowRequestStore(threshold_s=0.5)
        assert self._observe(store, 0.1) is None
        assert store.observed == 1 and store.captured == 0

    def test_slow_request_capture_shape(self):
        store = SlowRequestStore(threshold_s=0.1)
        exemplar = self._observe(store, 0.5)
        assert exemplar is not None
        assert exemplar["dur_ms"] == pytest.approx(500.0)
        assert exemplar["waterfall"] == []
        assert exemplar["profile"] is None
        assert store.snapshot() == [exemplar]

    def test_waterfall_filters_to_request_window(self):
        store = SlowRequestStore(threshold_s=0.1)
        t0 = 1000.0
        spans = [
            # inside the window
            {"name": "stage.tree", "ts_us": 1000.2e6, "dur_us": 100e3,
             "id": "a", "parent": None},
            # long before it
            {"name": "old", "ts_us": 900.0e6, "dur_us": 50e3,
             "id": "b", "parent": None},
        ]
        exemplar = store.observe(
            path="/x", request_id="r", status=200,
            t0_wall=t0, dur_s=1.0, span_records=spans,
        )
        names = [row["name"] for row in exemplar["waterfall"]]
        assert names == ["stage.tree"]
        row = exemplar["waterfall"][0]
        assert row["offset_ms"] == pytest.approx(200.0)
        assert row["dur_ms"] == pytest.approx(100.0)

    def test_profile_slice_from_continuous_profiler(self):
        profiler = obs_prof.ContinuousProfiler(hz=100, capacity=256)
        profiler.start()
        try:
            t0 = time.time()
            deadline = time.perf_counter() + 0.3
            while time.perf_counter() < deadline:
                sum(i * i for i in range(200))
            dur = time.time() - t0
        finally:
            profiler.stop()
        store = SlowRequestStore(threshold_s=0.1)
        exemplar = store.observe(
            path="/x", request_id="r", status=200,
            t0_wall=t0, dur_s=dur, profiler=profiler,
        )
        assert exemplar["profile"]["samples"] > 0
        assert exemplar["profile"]["top"]

    def test_capacity_bound(self):
        store = SlowRequestStore(capacity=2, threshold_s=0.0)
        for i in range(5):
            self._observe(store, 1.0, request_id=f"r{i}")
        assert len(store) == 2
        assert [e["request_id"] for e in store.snapshot()] == ["r4", "r3"]


class TestRenderDash:
    def test_self_contained_html(self):
        ring = MetricsSnapshotRing(capacity=8, interval_s=999)
        ring.sample()
        ring.sample()
        store = SlowRequestStore(threshold_s=0.0)
        store.observe(
            path="/t/toy/kcore/0/0/0", request_id="r", status=200,
            t0_wall=time.time(), dur_s=0.8,
        )
        page = render_dash(
            ring=ring, slow=store, uptime_s=12.0,
            span_rollup={"stage.tree": {
                "count": 3, "p50_ms": 1.0, "p95_ms": 2.0,
                "max_ms": 2.5, "total_ms": 4.0,
            }},
        )
        assert page.startswith("<!DOCTYPE html>")
        assert "<script" not in page and "src=" not in page
        assert "<svg" in page
        assert "/t/toy/kcore/0/0/0" in page
        assert "stage.tree" in page
        assert "/debug/prof" in page and "/debug/slow" in page

    def test_sparkline_rate_mode(self):
        # A counter ramping 0,10,20 at 1s spacing is a flat 10/s rate.
        svg = sparkline_svg(
            [(0.0, 0.0), (1.0, 10.0), (2.0, 20.0)], as_rate=True
        )
        assert "10" in svg
        assert ET.fromstring(svg).tag.endswith("svg")

    def test_sparkline_empty_series(self):
        assert "no data" in sparkline_svg([])


class TestDebugRoutes:
    def test_dash_route(self, server):
        get(server.port, "/t/toy/kcore/0/0/0")
        status, headers, body = get(server.port, "/dash")
        assert status == 200
        assert headers["Content-Type"].startswith("text/html")
        page = body.decode()
        assert "repro dashboard" in page and "<svg" in page

    def test_debug_prof_svg(self, server):
        status, headers, body = get(server.port, "/debug/prof?seconds=1")
        assert status == 200
        assert headers["Content-Type"].startswith("image/svg")
        assert ET.fromstring(body.decode()).tag.endswith("svg")

    def test_debug_prof_collapsed(self, server):
        status, headers, body = get(
            server.port, "/debug/prof?seconds=1&format=collapsed"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")

    def test_debug_prof_rejects_bad_format(self, server):
        status, __, __ = get(server.port, "/debug/prof?format=exe")
        assert status == 400

    def test_debug_prof_rejects_out_of_range_seconds(self, server):
        # seconds is bounded to [1, 30]: a 0s or 10-minute profile
        # request is a caller bug, not something to silently clamp.
        status, __, __ = get(server.port, "/debug/prof?seconds=0")
        assert status == 400
        status, __, __ = get(server.port, "/debug/prof?seconds=600")
        assert status == 400

    def test_debug_slow_route(self, server):
        status, __, body = get(server.port, "/debug/slow")
        assert status == 200
        payload = json.loads(body)
        assert {"threshold_s", "observed", "captured", "exemplars"} <= set(
            payload
        )

    def test_index_lists_debug_endpoints(self, server):
        __, __, body = get(server.port, "/")
        endpoints = json.loads(body)["endpoints"]
        assert "/dash" in endpoints
        assert any(e.startswith("/debug/prof") for e in endpoints)
        assert "/debug/slow" in endpoints


class TestServerExit:
    NAMES = {"repro-prof-cont", "repro-dash-sampler"}

    def test_debug_threads_stop_with_the_server(self, edge_list_file):
        """The profiler and dash sampler start on the first request and
        stop when the server exits, with the runner's pool."""
        app = ServeApp(tile_size=16, levels=2)
        app.add_dataset("toy", ["kcore"], edge_list=edge_list_file)
        before = set(threading.enumerate())
        with ServerThread(app) as server:
            assert get(server.port, "/t/toy/kcore/0/0/0")[0] == 200
            deadline = time.monotonic() + 30
            started = set()
            while len(started) < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
                started = {
                    t for t in threading.enumerate() if t.name in self.NAMES
                } - before
            assert {t.name for t in started} == self.NAMES
        assert not [t.name for t in started if t.is_alive()]
        with pytest.raises(RuntimeError):  # the pool is shut down too
            app.runner.executor.submit(int)
