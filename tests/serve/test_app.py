"""End-to-end endpoint tests against a live server on a real socket."""

import json
import logging
from pathlib import Path

import numpy as np
import pytest

from repro.engine import Pipeline
from repro.engine import pipeline as pipeline_module
from repro.engine.pipeline import EdgeListSource
from repro.graph.io import read_edge_list
from repro.serve import ServeApp, ServerThread, StreamSession
from repro.stream import AddEdge, SetScalar, write_edit_log
from repro.terrain.heightfield import Tile

from serve_client import Client, exchange, read_sse


class TestMetaEndpoints:
    def test_index_lists_endpoints(self, client):
        status, doc = client.get_json("/")
        assert status == 200
        assert doc["service"] == "repro.serve"
        assert any(e.startswith("/t/") for e in doc["endpoints"])

    def test_healthz(self, client):
        assert client.get_json("/healthz") == (200, {"ok": True})

    def test_datasets(self, client):
        status, doc = client.get_json("/datasets")
        assert status == 200
        (toy,) = [d for d in doc["datasets"] if d["name"] == "toy"]
        assert toy["measures"] == ["kcore", "degree"]
        assert toy["tile_size"] == 16
        assert toy["tiles_per_side"] == [4, 2, 1]
        assert toy["source"] == "edge_list"
        assert doc["sessions"] == ["replay"]

    def test_datasets_name_their_source_kind(self, edge_list_file):
        app = ServeApp(tile_size=16, levels=2)
        app.add_dataset("amazon", ["kcore"])
        app.add_dataset("toy", ["kcore"], edge_list=edge_list_file)
        with ServerThread(app) as server:
            status, doc = Client(server.port).get_json("/datasets")
        assert status == 200
        assert {d["name"]: d["source"] for d in doc["datasets"]} == {
            "amazon": "dataset", "toy": "edge_list",
        }

    def test_stats(self, client):
        status, doc = client.get_json("/stats")
        assert status == 200
        assert "cache" in doc and "runner" in doc
        assert doc["runner"]["errors"] == 0

    def test_unknown_route_404(self, client):
        status, doc = client.get_json("/nonsense")
        assert status == 404

    def test_negative_content_length_400(self, server):
        """A raw request, since ``http.client`` sets its own length.  The
        timeout turns a server that never answers into a failure."""
        reply = exchange(
            server.port,
            b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: -5\r\n\r\n",
            timeout=10,
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        request_id = next(
            line.split(b":", 1)[1].strip()
            for line in head.split(b"\r\n")
            if line.lower().startswith(b"x-request-id:")
        )
        doc = json.loads(body)
        assert doc["status"] == 400
        assert doc["error"] == "bad Content-Length"
        assert doc["request_id"] == request_id.decode()


class TestTiles:
    def test_tile_roundtrip_and_assembly(self, client, app):
        """Fetched tiles parse and stitch to the pipeline's heightfield."""
        entry = app.datasets["toy"]
        pipeline = Pipeline(entry.source, "kcore", cache=app.cache)
        full = pipeline.heightfield(64)  # tile_size 16 * 2**(3-1) levels
        assembled = np.empty((64, 64))
        for ty in range(4):
            for tx in range(4):
                status, headers, body = client.get(
                    f"/t/toy/kcore/0/{tx}/{ty}"
                )
                assert status == 200
                assert headers["Content-Type"] == "application/x-repro-tile"
                tile = Tile.from_bytes(body)
                assert (tile.tx, tile.ty, tile.level) == (tx, ty, 0)
                assembled[
                    ty * 16:(ty + 1) * 16, tx * 16:(tx + 1) * 16
                ] = tile.height
        assert np.array_equal(assembled, full.height)

    def test_etag_and_304(self, client):
        status, headers, body = client.get("/t/toy/kcore/1/0/1")
        assert status == 200
        etag = headers["ETag"]
        assert etag.startswith('"')
        status2, headers2, body2 = client.get(
            "/t/toy/kcore/1/0/1", headers={"If-None-Match": etag}
        )
        assert status2 == 304
        assert body2 == b""
        assert headers2["ETag"] == etag
        # A non-matching validator still gets the representation.
        status3, _, body3 = client.get(
            "/t/toy/kcore/1/0/1", headers={"If-None-Match": '"stale"'}
        )
        assert status3 == 200 and body3 == body

    def test_warm_tiles_do_zero_pipeline_work(self, client):
        client.get("/t/toy/kcore/2/0/0")
        _, before = client.get_json("/stats")
        for _ in range(5):
            status, _, _ = client.get("/t/toy/kcore/2/0/0")
            assert status == 200
        _, after = client.get_json("/stats")
        assert after["cache"]["misses"] == before["cache"]["misses"]
        assert after["runner"]["builds"] == before["runner"]["builds"]

    def test_out_of_range_tile_404(self, client):
        for url in (
            "/t/toy/kcore/3/0/0",      # level beyond pyramid
            "/t/toy/kcore/0/4/0",      # tx beyond grid
            "/t/toy/kcore/0/0/-1",
            "/t/nope/kcore/0/0/0",     # unknown dataset
            "/t/toy/ktruss/0/0/0",     # unserved measure
        ):
            status, _, _ = client.get(url)
            assert status == 404, url

    def test_non_integer_coords_400(self, client):
        status, _, _ = client.get("/t/toy/kcore/zero/0/0")
        assert status == 400


class TestQueries:
    def test_peaks_match_pipeline(self, client, app):
        status, doc = client.get_json(
            "/peaks?dataset=toy&measure=kcore&count=2"
        )
        assert status == 200
        assert doc["peaks"][0]["alpha"] == 5.0  # K6 is a 5-core
        assert doc["peaks"][0]["size"] == 6
        assert doc["peaks"][0]["unit"] == "vertices"

    def test_hit_center_is_densest_core(self, client):
        status, doc = client.get_json(
            "/hit?dataset=toy&measure=kcore&x=0&y=0"
        )
        assert status == 200
        assert doc["node"] is not None
        assert doc["alpha"] == 5.0

    def test_hit_outside_everything(self, client):
        status, doc = client.get_json(
            "/hit?dataset=toy&measure=kcore&x=999&y=999"
        )
        assert status == 200
        assert doc["node"] is None

    def test_hit_requires_coordinates(self, client):
        status, doc = client.get_json("/hit?dataset=toy&measure=kcore")
        assert status == 400

    def test_hit_rejects_non_finite_coordinates(self, client):
        # float() parses these, but JSON cannot carry them back.
        for x in ("nan", "1e999", "-inf"):
            status, doc = client.get_json(
                f"/hit?dataset=toy&measure=kcore&x={x}&y=0"
            )
            assert status == 400, x
            assert "finite" in doc["error"]

    def test_svg_displays(self, client):
        for url in (
            "/treemap.svg?dataset=toy&measure=kcore",
            "/profile.svg?dataset=toy&measure=kcore&width=300&height=120",
        ):
            status, headers, body = client.get(url)
            assert status == 200, url
            assert headers["Content-Type"] == "image/svg+xml"
            assert body.startswith(b"<svg")

    def test_unknown_dataset_404(self, client):
        status, _ = client.get_json("/peaks?dataset=ghost&measure=kcore")
        assert status == 404

    def test_missing_params_400(self, client):
        status, _ = client.get_json("/peaks")
        assert status == 400

    def test_second_measure_served(self, client):
        status, doc = client.get_json(
            "/peaks?dataset=toy&measure=degree&count=1"
        )
        assert status == 200
        assert doc["measure"] == "degree"


class TestStream:
    def test_replay_pushes_frames_and_invalidations(self, server):
        events = read_sse(server.port, "/stream/replay")
        names = [name for name, _ in events]
        assert names[0] == "hello"
        assert names[-1] == "done"
        assert names.count("frame") == 2
        hello = events[0][1]
        assert hello["batches"] == 2
        assert hello["base_resolution"] == 32
        frames = [doc for name, doc in events if name == "frame"]
        assert [f["batch"] for f in frames] == [0, 1]
        assert frames[0]["edits"] == 1
        # Raising vertex 8's scalar to a new summit must dirty tiles.
        invalidations = [doc for name, doc in events if name == "invalidate"]
        assert invalidations, "scalar change produced no invalidations"
        level_zero = [
            t for doc in invalidations for t in doc["tiles"] if t[0] == 0
        ]
        assert level_zero
        assert all(
            0 <= tx < 2 and 0 <= ty < 2 for _, tx, ty in level_zero
        )

    def test_unknown_session_404(self, client):
        status, _ = client.get_json("/stream/ghost")
        assert status == 404

    def test_replay_steps_through_the_batches_read_at_registration(
        self, tmp_path, edge_list_file, caplog
    ):
        """The log is read when the session is created: overwriting it
        with a malformed line, then deleting it, changes no replay, and
        the server logs no exception."""
        log = write_edit_log(
            tmp_path / "edits.jsonl",
            [[SetScalar(8, 4.0)], [AddEdge(0, 8)]],
            times=[1.0, 2.0],
        )
        app = ServeApp(tile_size=16, levels=2)
        app.add_dataset("toy", ["kcore"], edge_list=edge_list_file)
        app.add_stream_session(StreamSession(
            "s", EdgeListSource(edge_list_file), "kcore", str(log),
            tile_size=16, levels=2,
        ))
        with caplog.at_level(logging.ERROR), ServerThread(app) as server:
            Path(log).write_text('{"op": "set" "v": 1}\n')
            overwritten = read_sse(server.port, "/stream/s")
            Path(log).unlink()
            deleted = read_sse(server.port, "/stream/s")
        names = [name for name, _ in overwritten]
        assert names[0] == "hello" and names[-1] == "done"
        assert names.count("frame") == 2
        assert overwritten[0][1]["batches"] == 2
        assert deleted == overwritten
        assert not [r for r in caplog.records if r.levelno >= logging.ERROR]


class TestEdgeListReads:
    def test_one_read_serves_every_measure_and_replay(
        self, edge_list_file, edit_log_file, monkeypatch
    ):
        """The dataset's source keeps the graph it read: both measures'
        pipelines and a replay over that source share one read."""
        reads = []

        def counting(path):
            reads.append(path)
            return read_edge_list(path)

        monkeypatch.setattr(pipeline_module, "read_edge_list", counting)
        app = ServeApp(tile_size=16, levels=2)
        app.add_dataset("toy", ["kcore", "degree"], edge_list=edge_list_file)
        app.add_stream_session(StreamSession(
            "s", app.datasets["toy"].source, "kcore", edit_log_file,
            tile_size=16, levels=2,
        ))
        with ServerThread(app) as server:
            client = Client(server.port)
            for measure in ("kcore", "degree"):
                status, _, body = client.get(f"/t/toy/{measure}/0/0/0")
                assert status == 200, body
            names = [name for name, _ in read_sse(server.port, "/stream/s")]
        assert names[-1] == "done"
        assert reads == [edge_list_file]


class TestPayloadMemoBound:
    def test_lru_bounded_by_cache_budget(self):
        from repro.engine import ArtifactCache
        from repro.serve import ServeApp

        app = ServeApp(cache=ArtifactCache(max_memory_bytes=2048))
        app._payload_put("a", (b"x" * 1024, '"a"'))
        app._payload_put("b", (b"y" * 1024, '"b"'))
        app._payload_get("a")                      # refresh: b is LRU
        app._payload_put("c", (b"z" * 1024, '"c"'))
        assert app._payload_get("b") is None
        assert app._payload_get("a") is not None
        assert app._payload_get("c") is not None
        assert app._payload_bytes <= 2048
        app.runner.shutdown()

    def test_unbounded_without_budget(self):
        from repro.serve import ServeApp

        app = ServeApp()
        for i in range(50):
            app._payload_put(f"k{i}", (b"x" * 1024, f'"{i}"'))
        assert len(app._payloads) == 50
        app.runner.shutdown()
