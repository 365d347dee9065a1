"""Coalescing and concurrency: N concurrent cold requests, one build."""

import asyncio
import http.client
import threading
import time

import pytest

from repro.engine import ArtifactCache
from repro.serve import ServeApp, ServerThread, StageRunner


class CountingCache(ArtifactCache):
    """ArtifactCache that counts every *build* (miss followed by put),
    per stage-key — the instrument the coalescing contract is asserted
    with."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.put_counts = {}

    def put(self, key, value, disk=True):
        with self._lock:
            self.put_counts[key] = self.put_counts.get(key, 0) + 1
        return super().put(key, value, disk=disk)


class TestStageRunnerUnit:
    def test_same_key_coalesces(self):
        runner = StageRunner()
        calls = []

        def slow_build(tag):
            calls.append(tag)
            time.sleep(0.05)
            return tag

        async def hammer():
            return await asyncio.gather(*[
                runner.run("one-key", slow_build, "artifact")
                for _ in range(16)
            ])

        results = asyncio.run(hammer())
        runner.shutdown()
        assert results == ["artifact"] * 16
        assert len(calls) == 1
        assert runner.stats["builds"] == 1
        assert runner.stats["coalesced"] == 15

    def test_different_keys_run_independently(self):
        runner = StageRunner()

        async def hammer():
            return await asyncio.gather(
                runner.run("a", lambda: "a"), runner.run("b", lambda: "b")
            )

        assert asyncio.run(hammer()) == ["a", "b"]
        assert runner.stats["builds"] == 2
        runner.shutdown()

    def test_key_released_after_completion(self):
        runner = StageRunner()

        async def twice():
            first = await runner.run("k", lambda: 1)
            second = await runner.run("k", lambda: 2)
            return first, second

        assert asyncio.run(twice()) == (1, 2)  # second run not coalesced
        assert runner.stats["builds"] == 2
        runner.shutdown()

    def test_failed_build_propagates_and_releases_key(self):
        runner = StageRunner()

        def boom():
            raise RuntimeError("stage failed")

        async def attempt_then_recover():
            with pytest.raises(RuntimeError):
                await runner.run("k", boom)
            return await runner.run("k", lambda: "recovered")

        assert asyncio.run(attempt_then_recover()) == "recovered"
        assert runner.stats["errors"] == 1
        runner.shutdown()


class TestColdTileConcurrency:
    """The ISSUE's regression: N threads hammering one cold tile key
    must yield exactly one pipeline build."""

    @pytest.fixture
    def cold_server(self, edge_list_file):
        cache = CountingCache()
        app = ServeApp(cache=cache, tile_size=16, levels=2)
        app.add_dataset("toy", ["kcore"], edge_list=edge_list_file)
        with ServerThread(app) as server:
            yield server, cache, app

    def test_one_build_under_thread_hammer(self, cold_server):
        server, cache, app = cold_server
        n_threads = 12
        results, errors = [], []
        barrier = threading.Barrier(n_threads)

        def fetch():
            try:
                barrier.wait(timeout=30)
                conn = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=120
                )
                conn.request("GET", "/t/toy/kcore/0/1/1")
                response = conn.getresponse()
                results.append(
                    (response.status, response.getheader("ETag"),
                     response.read())
                )
                conn.close()
            except Exception as exc:  # surface in the main thread
                errors.append(exc)

        threads = [threading.Thread(target=fetch) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=180)
        assert not errors
        assert len(results) == n_threads
        statuses, etags, bodies = zip(*results)
        assert set(statuses) == {200}
        assert len(set(etags)) == 1
        assert len(set(bodies)) == 1

        # Every stage was built exactly once — including the tile the
        # threads all raced for and the expensive upstream stages.
        assert cache.put_counts, "no builds recorded at all"
        assert set(cache.put_counts.values()) == {1}, cache.put_counts

        # And the runner saw exactly one levels build + one tile build.
        assert app.runner.stats["builds"] == 2
        assert app.runner.stats["coalesced"] >= 1
