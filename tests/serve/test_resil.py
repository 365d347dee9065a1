"""Serve-layer resilience: admission control (429), circuit breaking
(503), request deadlines (504), stale-tile degradation, SSE session
caps, mid-replay disconnects, and graceful drain."""

import asyncio
import socket
import threading
import time

import pytest

from repro.engine import ArtifactCache
from repro.engine.pipeline import EdgeListSource
from repro.resil import faults
from repro.resil.retry import RetryPolicy, Saturated
from repro.serve import ServeApp, ServerThread, StageRunner, StreamSession

from serve_client import Client, StubApp, open_sse, read_until


@pytest.fixture
def fault_spec():
    yield faults.configure
    faults.configure(None)


def make_app(edge_list_file, log=None, interval=0.0, **app_kwargs):
    app = ServeApp(tile_size=16, levels=2, **app_kwargs)
    app.add_dataset("toy", ["kcore"], edge_list=edge_list_file)
    if log is not None:
        app.add_stream_session(StreamSession(
            "replay",
            EdgeListSource(edge_list_file),
            "kcore",
            log,
            tile_size=16,
            levels=2,
            interval=interval,
        ))
    return app


@pytest.fixture
def long_log_file(tmp_path):
    from repro.stream import SetScalar, write_edit_log

    return str(write_edit_log(
        tmp_path / "edits.jsonl",
        [[SetScalar(8, float(i))] for i in range(1, 7)],
        times=[float(i) for i in range(1, 7)],
    ))


class TestHTTPStatusMapping:
    @pytest.fixture
    def stub_server(self):
        with ServerThread(StubApp()) as server:
            yield Client(server.port)

    def test_saturated_maps_to_429_with_retry_after(self, stub_server):
        status, headers, body = stub_server.get("/saturated")
        assert status == 429
        assert headers["Retry-After"] == "2"
        assert b"queue full" in body

    def test_circuit_open_maps_to_503_with_retry_after(self, stub_server):
        status, headers, body = stub_server.get("/circuit")
        assert status == 503
        assert headers["Retry-After"] == "12"

    def test_deadline_maps_to_504(self, stub_server):
        status, _, body = stub_server.get("/deadline")
        assert status == 504
        assert b"budget" in body


class TestAdmissionGateRunner:
    def test_bulk_shed_interactive_reserved(self):
        runner = StageRunner(max_inflight=4)  # 1 slot reserved
        release = threading.Event()

        def slow(tag):
            release.wait(10)
            return tag

        async def scenario():
            bulk = [
                asyncio.ensure_future(runner.run(f"k{i}", slow, i))
                for i in range(3)
            ]
            await asyncio.sleep(0.2)  # all three admitted
            with pytest.raises(Saturated) as excinfo:
                await runner.run("k-overflow", slow, 99)
            assert excinfo.value.retry_after > 0
            # The reserve still admits interactive work under overload.
            hit = asyncio.ensure_future(
                runner.run("hit", slow, "hit", interactive=True)
            )
            await asyncio.sleep(0.1)
            release.set()
            return await asyncio.gather(*bulk, hit)

        try:
            results = asyncio.run(scenario())
        finally:
            runner.shutdown()
        assert results == [0, 1, 2, "hit"]
        assert runner.stats["shed"] == 1
        assert runner.gate.snapshot()["admitted"] == 0


class TestCircuitBreakerOverHTTP:
    def test_repeated_failures_open_the_circuit(
        self, edge_list_file, fault_spec
    ):
        fault_spec("task_fail:*")
        runner = StageRunner(
            retry=RetryPolicy(max_attempts=1, base_delay=0.0),
            breaker_threshold=1,
            breaker_cooldown=60.0,
        )
        app = make_app(edge_list_file, runner=runner, cache=ArtifactCache())
        with ServerThread(app) as server:
            client = Client(server.port)
            status, _, _ = client.get("/t/toy/kcore/0/0/0")
            assert status == 500  # the injected failure itself
            status, headers, body = client.get("/t/toy/kcore/0/0/0")
            assert status == 503  # breaker open: fail fast, no build
            assert int(headers["Retry-After"]) >= 1
            assert b"circuit open" in body
        assert runner.stats["breaker_open"] == 1
        snap = runner.resil_snapshot()
        assert snap["breakers"]["open"] == ["levels:toy:kcore"]


class TestStaleTileDegradation:
    def test_failed_rebuild_serves_stale_with_warning(
        self, edge_list_file, fault_spec
    ):
        runner = StageRunner(
            retry=RetryPolicy(max_attempts=2, base_delay=0.01)
        )
        app = make_app(edge_list_file, runner=runner, cache=ArtifactCache())
        with ServerThread(app) as server:
            client = Client(server.port)
            status, headers, body = client.get("/t/toy/kcore/0/0/0")
            assert status == 200 and "Warning" not in headers
            etag = headers["ETag"]
            # Evict the warm payload and make every rebuild fail: the
            # last known good tile must come back, flagged stale.
            app._payloads.clear()
            faults.configure("task_fail:*")
            status, headers, stale_body = client.get("/t/toy/kcore/0/0/0")
            assert status == 200
            assert headers["Warning"] == '110 repro "Response is Stale"'
            assert headers["ETag"] == etag and stale_body == body
            faults.configure(None)
            status, stats = client.get_json("/stats")
            assert stats["resil"]["stale_tiles"]["served"] == 1
            assert stats["resil"]["stale_tiles"]["held"] >= 1

    def test_stale_bytes_are_payloads_evicted_from_the_memo(
        self, edge_list_file
    ):
        """``resil.stale_tiles.bytes`` counts the payloads only the
        stale store holds: outside the ``--cache-memory-mb`` budget."""
        app = make_app(edge_list_file, cache=ArtifactCache(max_memory_bytes=1))
        with ServerThread(app) as server:
            client = Client(server.port)
            bodies = [
                client.get(f"/t/toy/kcore/0/{tx}/{ty}")[2]
                for ty in range(2) for tx in range(2)
            ]
            status, stats = client.get_json("/stats")
        assert status == 200
        # A 1-byte budget keeps only the newest payload in the memo.
        assert stats["warm_tiles"] == 1
        assert stats["resil"]["stale_tiles"]["held"] == 4
        assert stats["resil"]["stale_tiles"]["bytes"] == sum(
            len(body) for body in bodies[:-1]
        )

    def test_no_stale_copy_means_the_error_stands(
        self, edge_list_file, fault_spec
    ):
        fault_spec("task_fail:*")
        runner = StageRunner(
            retry=RetryPolicy(max_attempts=1, base_delay=0.0)
        )
        app = make_app(edge_list_file, runner=runner, cache=ArtifactCache())
        with ServerThread(app) as server:
            status, _, _ = Client(server.port).get("/t/toy/kcore/0/0/0")
            assert status == 500


class TestRequestDeadline:
    def test_slow_build_answers_504_and_server_survives(
        self, edge_list_file, fault_spec
    ):
        fault_spec("task_delay:*:0.6")
        app = make_app(
            edge_list_file,
            cache=ArtifactCache(),
            request_timeout=0.2,
        )
        with ServerThread(app) as server:
            client = Client(server.port)
            status, _, body = client.get("/t/toy/kcore/0/0/0")
            assert status == 504
            assert b"budget" in body
            status, _, _ = client.get("/healthz")
            assert status == 200  # overload never takes the server down
        assert app.runner.stats["deadline_exceeded"] >= 1


class TestSSESessions:
    def test_session_cap_answers_429(self, edge_list_file, long_log_file):
        app = make_app(edge_list_file, log=long_log_file, interval=0.25)
        with ServerThread(app, max_sse_sessions=1) as server:
            first = open_sse(server.port, "/stream/replay")
            try:
                read_until(first, "event: hello")
                status, headers, body = Client(server.port).get(
                    "/stream/replay"
                )
                assert status == 429
                assert headers["Retry-After"] == "1"
                assert b"sse session limit" in body.lower() or b"429" in body
            finally:
                first.close()

    def test_abort_mid_replay_releases_the_slot(
        self, edge_list_file, long_log_file
    ):
        app = make_app(edge_list_file, log=long_log_file, interval=0.25)
        with ServerThread(app, max_sse_sessions=1) as server:
            aborter = open_sse(server.port, "/stream/replay")
            read_until(aborter, "event: frame")
            aborter.close()  # hang up mid-replay
            # The server must notice, stop building frames, and free
            # the session slot.
            deadline = time.time() + 30
            while server.server._sse_active and time.time() < deadline:
                time.sleep(0.05)
            assert server.server._sse_active == 0
            # A new client fits under the (size 1) cap and replays to
            # completion — the dead session did not leak its slot.
            again = open_sse(server.port, "/stream/replay")
            try:
                text = read_until(again, "event: done").decode()
            finally:
                again.close()
            assert "event: hello" in text and "event: done" in text
            status, _, body = Client(server.port).get("/metrics")
            assert b"repro_resil_sse_aborts_total" in body

    def test_drain_sends_terminal_shutdown_event(
        self, edge_list_file, long_log_file
    ):
        app = make_app(edge_list_file, log=long_log_file, interval=0.4)
        with ServerThread(app) as server:
            watcher = open_sse(server.port, "/stream/replay")
            try:
                read_until(watcher, "event: frame")
                server.run_coroutine(server.server.drain(grace=10))
                # The stream ends with a terminal shutdown event, then
                # the connection closes (read to EOF).
                tail = read_until(watcher, "\x00", timeout=15)
                assert b"event: shutdown" in tail
                assert b"draining" in tail
            finally:
                watcher.close()
            # Drained server no longer accepts connections.
            with pytest.raises(OSError):
                socket.create_connection(
                    ("127.0.0.1", server.port), timeout=2
                )
