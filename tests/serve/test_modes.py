"""Fence for the one serve job path: every job route answers
byte-identically from a thread-mode and a process-mode runner, and
after a worker process dies mid-job."""

import pytest

from repro.engine import ArtifactCache
from repro.resil import faults
from repro.serve import ServeApp, ServerThread, StageRunner

from serve_client import Client

#: A vertex field and an edge field: both tree kinds, both peak units.
MEASURES = ("kcore", "ktruss")


def job_routes(app):
    """Every tile at every level, plus peaks, a hit inside and one
    outside the terrain, the treemap and the profile, per measure."""
    entry = app.datasets["toy"]
    urls = []
    for measure in MEASURES:
        pyramid = app.pyramid(entry, measure)
        for level in range(pyramid.levels):
            per = pyramid.tiles_per_side(level)
            urls += [
                f"/t/toy/{measure}/{level}/{tx}/{ty}"
                for ty in range(per) for tx in range(per)
            ]
        query = f"dataset=toy&measure={measure}"
        urls += [
            f"/peaks?{query}&count=3",
            f"/hit?{query}&x=0&y=0",
            f"/hit?{query}&x=999&y=999",
            f"/treemap.svg?{query}&size=128",
            f"/profile.svg?{query}&width=160&height=64",
        ]
    return urls


def serve_all(edge_list_file, cache_dir, workers):
    """``{url: (ETag, body)}`` over every job route, the runner's stats
    once the server has stopped, and the server's own cache stats."""
    runner = StageRunner(workers=workers)
    app = ServeApp(
        cache=ArtifactCache(cache_dir), runner=runner, tile_size=16, levels=2
    )
    app.add_dataset("toy", list(MEASURES), edge_list=edge_list_file)
    answers = {}
    with ServerThread(app) as server:
        client = Client(server.port)
        for url in job_routes(app):
            status, headers, body = client.get(url)
            assert status == 200, (url, body)
            answers[url] = (headers.get("ETag"), body)
    return answers, runner.stats, app.cache.stats


@pytest.fixture(scope="module")
def thread_answers(edge_list_file, tmp_path_factory):
    answers, stats, cache_stats = serve_all(
        edge_list_file, tmp_path_factory.mktemp("threads"), workers=0
    )
    assert cache_stats["puts"] > 0
    return answers


class TestOneJobPath:
    def test_process_mode_answers_identically(
        self, thread_answers, edge_list_file, tmp_path
    ):
        answers, stats, cache_stats = serve_all(
            edge_list_file, tmp_path, workers=2
        )
        assert answers == thread_answers
        assert stats["errors"] == 0
        # Every stage was built in a worker process, none in the server.
        assert cache_stats["puts"] == 0

    def test_worker_kill_heals_to_identical_answers(
        self, thread_answers, edge_list_file, tmp_path
    ):
        # Every pool task also sleeps a beat, so the killed worker
        # breaks the pool while the first real job is still running.
        faults.configure("worker_kill:1;task_delay:*:0.05")
        try:
            answers, stats, _ = serve_all(
                edge_list_file, tmp_path, workers=2
            )
        finally:
            faults.configure(None)
        assert stats["respawns"] >= 1
        assert answers == thread_answers
