"""Temporal evolution over HTTP: windows, trajectories, diff tiles, SSE."""

import builtins
import json

import pytest

from repro.graph.generators import dynamic_planted_partition
from repro.serve import EvolveSession, ServeApp, ServerThread
from repro.terrain.heightfield import Tile

from serve_client import Client, read_sse

REGIME = dict(
    n_windows=6, community_size=16, p_in=0.8, churn=0.2,
    noise_per_window=6, seed=0,
)


@pytest.fixture(scope="module")
def log():
    return dynamic_planted_partition(**REGIME)


@pytest.fixture(scope="module")
def evolve_app(tmp_path_factory, log):
    path = tmp_path_factory.mktemp("evolve") / "dyn.tsv"
    log.write(path)
    app = ServeApp(tile_size=16, levels=2)
    app.add_evolve_session(EvolveSession(
        "demo", str(path),
        measure="degree", horizon=1.0, origin=log.origin,
        alpha=3.0, min_size=5, resolution=128, tile_size=64,
    ))
    return app


@pytest.fixture(scope="module")
def evolve_server(evolve_app):
    with ServerThread(evolve_app) as running:
        yield running


@pytest.fixture(scope="module")
def evolve_client(evolve_server):
    return Client(evolve_server.port)


class TestWindows:
    def test_windows_and_tracker_stats(self, evolve_client, log):
        status, doc = evolve_client.get_json("/evolve/windows?run=demo")
        assert status == 200
        assert doc["run"] == "demo"
        assert len(doc["windows"]) == log.n_windows
        assert [w["index"] for w in doc["windows"]] == list(
            range(log.n_windows)
        )
        assert all(w["n_edges"] > 0 for w in doc["windows"])
        # Windows after the first carry a diff summary.
        assert "diff" in doc["windows"][1]
        assert "diff" not in doc["windows"][0]
        stats = doc["tracker"]
        assert stats["events"]["merge"] >= 1
        assert stats["trajectories"] >= 3

    def test_default_run_is_first_registered(self, evolve_client):
        status, doc = evolve_client.get_json("/evolve/windows")
        assert status == 200
        assert doc["run"] == "demo"

    def test_unknown_run_404(self, evolve_client):
        status, _ = evolve_client.get_json("/evolve/windows?run=ghost")
        assert status == 404


class TestPeaks:
    def test_trajectory_document(self, evolve_client):
        status, doc = evolve_client.get_json("/evolve/peaks/0?run=demo")
        assert status == 200
        assert doc["id"] == 0
        assert doc["born"] == 0
        assert doc["windows"][0] == 0
        assert len(doc["windows"]) == len(doc["sizes"])
        kinds = {e["kind"] for e in doc["events"]}
        assert "birth" in kinds

    def test_unknown_trajectory_404(self, evolve_client):
        status, _ = evolve_client.get_json("/evolve/peaks/999?run=demo")
        assert status == 404

    def test_non_integer_id_400(self, evolve_client):
        status, _, _ = evolve_client.get("/evolve/peaks/zero?run=demo")
        assert status == 400


class TestDiffTiles:
    def test_tile_bytes_roundtrip(self, evolve_client):
        status, headers, body = evolve_client.get(
            "/evolve/diff/1/0/0?run=demo"
        )
        assert status == 200
        assert headers["Content-Type"] == "application/x-repro-tile"
        tile = Tile.from_bytes(body)
        assert tile.height.shape == (64, 64)

    def test_strong_etag_revalidates(self, evolve_client):
        _, headers, _ = evolve_client.get("/evolve/diff/1/0/1?run=demo")
        etag = headers["ETag"]
        status, headers2, body = evolve_client.get(
            "/evolve/diff/1/0/1?run=demo",
            headers={"If-None-Match": etag},
        )
        assert status == 304
        assert body == b""
        assert headers2["ETag"] == etag

    def test_window_zero_has_no_diff(self, evolve_client):
        status, _, _ = evolve_client.get("/evolve/diff/0/0/0?run=demo")
        assert status == 404

    def test_out_of_grid_404(self, evolve_client):
        status, _, _ = evolve_client.get("/evolve/diff/1/5/0?run=demo")
        assert status == 404


class TestEvolveSSE:
    def test_stream_replays_windows(self, evolve_server, log):
        events = read_sse(evolve_server.port, "/stream/demo")
        names = [name for name, _ in events]
        assert names[0] == "hello"
        assert names[-1] == "done"
        assert names.count("window") == log.n_windows
        hello = events[0][1]
        assert hello["run"] == "demo"
        assert hello["windows"] == log.n_windows
        done = events[-1][1]
        assert done["windows"] == log.n_windows
        lifecycle = [doc for name, doc in events if name == "events"]
        kinds = [
            e["kind"] for doc in lifecycle for e in doc["events"]
        ]
        assert "birth" in kinds and "merge" in kinds


class TestStatsAndIndex:
    def test_stats_reports_evolve_section(self, evolve_client, log):
        # The SSE/window tests above materialized the run.
        status, doc = evolve_client.get_json("/stats")
        assert status == 200
        section = doc["evolve"]
        assert section["windows"] == log.n_windows
        assert section["tracked_peaks"] >= 3
        assert section["runs"]["demo"]["live"] >= 1

    def test_datasets_lists_evolve_runs(self, evolve_client):
        status, doc = evolve_client.get_json("/datasets")
        assert status == 200
        assert doc["evolve"] == ["demo"]

    def test_metrics_export_run_gauges(self, evolve_client):
        status, _, body = evolve_client.get("/metrics")
        assert status == 200
        text = body.decode()
        assert 'repro_evolve_run_windows{run="demo"}' in text
        assert "repro_evolve_run_trajectories" in text

    def test_unbuilt_session_stats_are_lazy(self, tmp_path_factory, log):
        path = tmp_path_factory.mktemp("evolve-lazy") / "dyn.tsv"
        log.write(path)
        app = ServeApp(tile_size=16, levels=2)
        app.add_evolve_session(EvolveSession("lazy", str(path)))
        with ServerThread(app) as server:
            client = Client(server.port)
            status, doc = client.get_json("/stats")
            assert status == 200
            assert doc["evolve"]["runs"]["lazy"] == {"built": False}
            assert doc["evolve"]["windows"] == 0


class TestLogReadOnce:
    """The session reads its log when registered; runs build from the
    rows it keeps, as a stream session replays the batches it read."""

    @staticmethod
    def _app(path, log):
        app = ServeApp(tile_size=16, levels=2)
        app.add_evolve_session(EvolveSession(
            "once", str(path), origin=log.origin,
            resolution=32, tile_size=16,
        ))
        return app

    def test_log_is_read_once(self, tmp_path, log, monkeypatch):
        path = tmp_path / "dyn.tsv"
        log.write(path)
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            if str(file) == str(path):
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        app = self._app(path, log)
        assert len(opened) == 1  # at registration, as repro serve boots
        with ServerThread(app) as server:
            client = Client(server.port)
            assert client.get_json("/evolve/windows")[0] == 200
            assert client.get("/evolve/diff/1/0/0")[0] == 200
        assert len(opened) == 1

    def test_log_changed_after_registration_is_not_read(self, tmp_path, log):
        path = tmp_path / "dyn.tsv"
        log.write(path)
        app = self._app(path, log)
        path.write_text("0 nope 1.0\n")
        with ServerThread(app) as server:
            status, doc = Client(server.port).get_json("/evolve/windows")
        assert status == 200
        assert len(doc["windows"]) == log.n_windows


class TestRegistrationGuards:
    def test_name_clash_with_stream_session_rejected(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("evolve-clash") / "dyn.tsv"
        dynamic_planted_partition(n_windows=2).write(path)
        app = ServeApp(tile_size=16, levels=2)
        app.add_evolve_session(EvolveSession("dup", str(path)))
        with pytest.raises(ValueError):
            app.add_evolve_session(EvolveSession("dup", str(path)))

    def test_no_sessions_404(self):
        app = ServeApp(tile_size=16, levels=2)
        with ServerThread(app) as server:
            client = Client(server.port)
            status, _ = client.get_json("/evolve/windows")
            assert status == 404
