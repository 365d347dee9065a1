"""Instrumentation wiring: engine stages, the cache, and the serve
surfaces (/metrics, /stats spans, X-Request-Id, error logs)."""

import http.client
import json

import numpy as np
import pytest

from repro import accel
from repro.accel import native
from repro.engine import ArtifactCache, EdgeListSource, Pipeline
from repro.graph import from_edges
from repro.graph.io import write_edge_list
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.serve import ServeApp, ServerThread
from repro.serve import app as serve_app
from repro.serve.http import HTTPError, Request, Response, Router, HTTPServer
from repro.terrain import render as terrain_render


def toy_graph():
    return from_edges(
        [(i, j) for i in range(6) for j in range(i + 1, 6)]
        + [(5, 6), (6, 7), (7, 8)]
    )


@pytest.fixture
def edge_list_file(tmp_path):
    path = tmp_path / "toy.txt"
    write_edge_list(toy_graph(), path)
    return str(path)


def get(port, url, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        conn.request("GET", url, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


class TestPipelineSpans:
    def test_cold_build_covers_all_stages_and_cache_events(
        self, ring, edge_list_file
    ):
        pipeline = Pipeline(
            EdgeListSource(edge_list_file), "kcore", cache=ArtifactCache()
        )
        pipeline.heightfield(32)
        names = [r["name"] for r in ring.snapshot()]
        for stage in (
            "stage.source", "stage.field", "stage.tree",
            "stage.display", "stage.layout", "stage.heightfield",
        ):
            assert stage in names, f"{stage} missing from {names}"
        assert "cache.get" in names and "cache.put" in names

    def test_cache_events_nest_under_their_stage(self, ring, edge_list_file):
        pipeline = Pipeline(
            EdgeListSource(edge_list_file), "kcore", cache=ArtifactCache()
        )
        pipeline.field
        records = ring.snapshot()
        field = next(r for r in records if r["name"] == "stage.field")
        gets = [r for r in records if r["name"] == "cache.get"]
        assert any(r["parent"] == field["id"] for r in gets)

    def test_warm_build_marks_hits_not_builds(self, ring, edge_list_file):
        cache = ArtifactCache()
        Pipeline(EdgeListSource(edge_list_file), "kcore", cache=cache).field
        ring.clear()
        Pipeline(EdgeListSource(edge_list_file), "kcore", cache=cache).field
        records = ring.snapshot()
        field = next(r for r in records if r["name"] == "stage.field")
        assert "built" not in field["attrs"]
        hits = [
            r for r in records
            if r["name"] == "cache.get" and r["attrs"].get("hit")
        ]
        assert hits

    def test_outputs_identical_enabled_vs_disabled(self, edge_list_file):
        trace.set_enabled(False)
        hf_off = Pipeline(
            EdgeListSource(edge_list_file), "kcore", cache=ArtifactCache()
        ).heightfield(32)
        trace.add_exporter(trace.RingBufferExporter())
        trace.set_enabled(True)
        hf_on = Pipeline(
            EdgeListSource(edge_list_file), "kcore", cache=ArtifactCache()
        ).heightfield(32)
        assert np.array_equal(hf_off.height, hf_on.height)
        assert np.array_equal(hf_off.node, hf_on.node)

    def test_render_sink_spans_nest_under_the_caller(
        self, ring, edge_list_file, tmp_path
    ):
        def render(path):
            return Pipeline(
                EdgeListSource(edge_list_file), "kcore", cache=ArtifactCache()
            ).render(path=path, resolution=32, width=64, height=48)

        trace.set_enabled(False)
        plain = render(tmp_path / "plain.png")
        trace.set_enabled(True)
        with trace.span("caller") as caller:
            traced = render(tmp_path / "traced.png")
        sink = {
            r["name"]: r for r in ring.snapshot()
            if r["name"] in ("stage.mesh", "stage.render", "stage.encode")
        }
        assert set(sink) == {"stage.mesh", "stage.render", "stage.encode"}
        assert all(r["parent"] == caller.span_id for r in sink.values())
        # A 32x32 heightfield has 31x31 quads of two faces each; the
        # tier names the z-buffer that ran.
        assert sink["stage.render"]["attrs"] == {
            "faces": 2 * 31 * 31, "width": 64, "height": 48,
            "tier": terrain_render._zbuffer_tier(),
        }
        assert np.array_equal(plain, traced)
        assert (tmp_path / "plain.png").read_bytes() == (
            tmp_path / "traced.png"
        ).read_bytes()

    @pytest.mark.parametrize("tier", ["native", "vector"])
    def test_render_span_names_the_zbuffer_that_ran(
        self, ring, edge_list_file, tier
    ):
        if tier == "native" and not native.available():
            pytest.skip("native z-buffer unavailable")
        with accel.using(tier):
            Pipeline(
                EdgeListSource(edge_list_file), "kcore", cache=ArtifactCache()
            ).render(resolution=16, width=32, height=24)
        (span,) = [r for r in ring.snapshot() if r["name"] == "stage.render"]
        assert span["attrs"]["tier"] == tier

    def test_cache_stats_dict_unchanged_by_tracing(self, ring, edge_list_file):
        cache = ArtifactCache()
        pipeline = Pipeline(EdgeListSource(edge_list_file), "kcore", cache=cache)
        pipeline.heightfield(32)
        # The bench contract: one miss per cached stage, no extras from
        # the instrumentation itself.
        assert cache.stats["misses"] == cache.stats["puts"]


class TestServeSurfaces:
    @pytest.fixture
    def server(self, edge_list_file):
        app = ServeApp(tile_size=16, levels=2)
        app.add_dataset("toy", ["kcore"], edge_list=edge_list_file)
        with ServerThread(app) as running:
            yield running

    def test_metrics_endpoint_serves_prometheus_text(self, server):
        get(server.port, "/t/toy/kcore/0/0/0")
        status, headers, body = get(server.port, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode()
        assert "# TYPE repro_cache_hits_total counter" in text
        assert "# TYPE repro_http_request_seconds histogram" in text
        assert "# TYPE repro_serve_uptime_seconds gauge" in text
        assert 'repro_tiles_served_total{level="0"}' in text

    def test_every_response_carries_a_request_id(self, server):
        seen = set()
        for url in ("/healthz", "/stats", "/no-such-route"):
            __, headers, __b = get(server.port, url)
            rid = headers.get("X-Request-Id")
            assert rid, f"{url} lacks X-Request-Id"
            seen.add(rid)
        assert len(seen) == 3  # unique per request

    def test_error_response_echoes_request_id(self, server):
        status, headers, body = get(server.port, "/no-such-route")
        assert status == 404
        doc = json.loads(body)
        assert doc["request_id"] == headers["X-Request-Id"]

    def test_stats_has_span_rollup_and_monotonic_uptime(
        self, ring, server
    ):
        # The server's span ring is process-global; spans from earlier
        # tests would otherwise crowd http.request out of the bounded
        # top-N rollup.
        serve_app._SPAN_RING.clear()
        get(server.port, "/healthz")
        status, __, body = get(server.port, "/stats")
        stats = json.loads(body)
        assert status == 200
        assert stats["uptime_s"] >= 0
        assert "http.request" in stats["spans"]
        rollup = stats["spans"]["http.request"]
        assert set(rollup) == {
            "count", "p50_ms", "p95_ms", "max_ms", "total_ms"
        }

    def test_stats_keeps_backward_compatible_keys(self, server):
        __, __h, body = get(server.port, "/stats")
        stats = json.loads(body)
        assert set(stats) >= {"cache", "runner", "warm_tiles", "uptime_s"}
        assert set(stats["cache"]) >= {"hits", "misses", "puts", "entries"}
        assert set(stats["runner"]) >= {"builds", "coalesced", "errors"}


class TestErrorLogging:
    def test_unhandled_exception_logs_one_json_line(self, caplog):
        async def boom(request):
            raise RuntimeError("kaboom")

        router = Router()
        router.get("/boom", boom)
        server = HTTPServer(router)

        async def go():
            port = await server.start()
            try:
                import asyncio

                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(None, get, port, "/boom")
            finally:
                await server.aclose()

        import asyncio

        with caplog.at_level("ERROR", logger="repro.serve"):
            status, headers, body = asyncio.run(go())

        assert status == 500
        doc = json.loads(body)
        assert doc == {
            "error": "internal server error",
            "status": 500,
            "request_id": headers["X-Request-Id"],
        }
        assert b"kaboom" not in body  # no traceback leakage to clients
        logged = [
            json.loads(r.message) for r in caplog.records
            if r.name == "repro.serve"
        ]
        assert len(logged) == 1
        entry = logged[0]
        assert entry["event"] == "request_error"
        assert entry["route"] == "/boom"
        assert entry["status"] == 500
        assert entry["exception"] == "RuntimeError: kaboom"
        assert entry["request_id"] == headers["X-Request-Id"]
        assert "kaboom" in entry["traceback"]


class TestMetricsFamilies:
    def test_global_registry_has_all_wired_families(self):
        # Importing the instrumented modules registers these; the set is
        # the contract scraped by CI's obs-smoke job.
        import repro.engine.pipeline  # noqa: F401
        import repro.serve.app  # noqa: F401

        names = {f.name for f in obs_metrics.REGISTRY.families()}
        assert names >= {
            "repro_cache_hits_total",
            "repro_cache_misses_total",
            "repro_cache_puts_total",
            "repro_cache_evictions_total",
            "repro_cache_bytes",
            "repro_stage_build_seconds",
            "repro_stream_batches_total",
            "repro_http_responses_total",
            "repro_http_request_seconds",
            "repro_sse_sessions",
            "repro_tiles_served_total",
            "repro_serve_uptime_seconds",
        }
