"""One record per count: each count on ``/stats`` moves by exactly as
much as its ``/metrics`` series.

Fresh servers are driven through small request mixes that produce
cache misses, puts, memory and disk hits, runner builds, coalesced
riders, an injected ``task_fail`` retry, a shed, a breaker refusal and
stale tiles.  The metrics registry is process-wide, so each pair is
compared as a difference against a scrape taken when the app (and its
fault schedule) was created.  ``runner.builds``, ``coalesced`` and
``errors`` have no ``/metrics`` series; the mixes only check that they
moved.  The full key tree of ``/stats`` is pinned too.
"""

import contextlib
import re
import threading
import time

import pytest

from repro.engine import ArtifactCache
from repro.graph.generators import dynamic_planted_partition
from repro.resil import faults
from repro.resil.retry import RetryPolicy
from repro.serve import EvolveSession, ServeApp, ServerThread, StageRunner

from serve_client import Client

#: (path in /stats, /metrics family, labels; None sums every child)
PAIRS = [
    (("cache", "hits"), "repro_cache_hits_total", None),
    (("cache", "memory_hits"), "repro_cache_hits_total", {"tier": "memory"}),
    (("cache", "disk_hits"), "repro_cache_hits_total", {"tier": "disk"}),
    (("cache", "misses"), "repro_cache_misses_total", {}),
    (("cache", "puts"), "repro_cache_puts_total", {}),
    (("cache", "evictions"), "repro_cache_evictions_total",
     {"tier": "memory"}),
    (("cache", "corrupt"), "repro_cache_corrupt_total", {}),
    (("runner", "retries"), "repro_resil_retries_total",
     {"site": "stage_runner"}),
    (("runner", "deadline_exceeded"), "repro_resil_deadline_exceeded_total",
     {"site": "stage_runner"}),
    (("runner", "shed"), "repro_resil_shed_total", None),
    (("resil", "gate", "shed"), "repro_resil_shed_total", None),
    (("runner", "breaker_open"), "repro_resil_breaker_total",
     {"event": "rejected"}),
    (("resil", "stale_tiles", "served"), "repro_resil_stale_tiles_total", {}),
] + [
    (("resil", "faults", "fired", site), "repro_resil_faults_injected_total",
     {"site": site})
    for site in faults.SITES
]

_SERIES = re.compile(r"^(\w+)(?:\{(.*)\})? (\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def scrape(client):
    """``{(family, labels): value}`` of every sample on ``/metrics``."""
    status, _, body = client.get("/metrics")
    assert status == 200
    samples = {}
    for line in body.decode().splitlines():
        match = _SERIES.match(line)
        if match:
            name, labels, value = match.groups()
            key = (name, frozenset(_LABEL.findall(labels or "")))
            samples[key] = float(value)
    return samples


def series(samples, family, labels):
    want = None if labels is None else set(labels.items())
    return sum(
        value for (name, got), value in samples.items()
        if name == family and (want is None or got == want)
    )


def lookup(doc, path):
    for key in path:
        if not isinstance(doc, dict):
            return 0  # the gate or the fault schedule is off
        doc = doc.get(key, 0)
    return doc


def check_pairs(client, before):
    """Assert every pair agrees; returns ``/stats`` for more checks."""
    status, stats = client.get_json("/stats")
    assert status == 200
    after = scrape(client)
    for path, family, labels in PAIRS:
        moved = series(after, family, labels) - series(before, family, labels)
        assert lookup(stats, path) == moved, (path, family, labels)
    return stats


def make_app(edge_list_file, **kwargs):
    app = ServeApp(tile_size=16, levels=2, **kwargs)
    app.add_dataset("toy", ["kcore", "degree"], edge_list=edge_list_file)
    return app


@contextlib.contextmanager
def serving(app):
    """A client of a live server over ``app``."""
    with ServerThread(app) as server:
        yield Client(server.port)


@pytest.fixture
def fault_spec():
    yield faults.configure
    faults.configure(None)


def in_threads(*calls):
    threads = [threading.Thread(target=call) for call in calls]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
        assert not thread.is_alive()


class TestStatsAgreeWithMetrics:
    def test_cache_runner_and_retry(self, edge_list_file, tmp_path, fault_spec):
        # The first job sleeps, then fails: its riders coalesce onto the
        # one logical build, which the runner retries once.
        fault_spec("task_fail:1;task_delay:1:0.15")
        runner = StageRunner(retry=RetryPolicy(max_attempts=3, base_delay=0))
        app = make_app(
            edge_list_file, runner=runner, cache=ArtifactCache(tmp_path)
        )
        with serving(app) as client:
            before = scrape(client)
            statuses = []
            in_threads(*[
                lambda: statuses.append(client.get("/t/toy/kcore/0/0/0")[0])
            ] * 4)
            assert statuses == [200] * 4
            assert client.get("/t/toy/kcore/1/0/0")[0] == 200
            app._payloads.clear()
            assert client.get("/t/toy/kcore/0/0/0")[0] == 200
            stats = check_pairs(client, before)
        cache, run = stats["cache"], stats["runner"]
        assert cache["misses"] and cache["puts"] and cache["memory_hits"]
        assert run["builds"] and run["coalesced"] and run["retries"] == 1
        assert stats["resil"]["faults"]["fired"] == {
            "task_fail": 1, "task_delay": 1,
        }

        faults.configure(None)
        warm = make_app(edge_list_file, cache=ArtifactCache(tmp_path))
        with serving(warm) as client:
            before = scrape(client)
            assert client.get("/t/toy/kcore/0/0/0")[0] == 200
            stats = check_pairs(client, before)
        assert stats["cache"]["disk_hits"]

    def test_breaker_stale_and_shed(self, edge_list_file, fault_spec):
        # Job passes: 1 kcore levels, 2 kcore tile, 3 the failed tile
        # rebuild (opens the breaker), 4 the slow degree levels build
        # that fills the gate while a cold kcore tile is shed.
        fault_spec("task_fail:3;task_delay:4:0.3")
        runner = StageRunner(
            retry=RetryPolicy(max_attempts=1, base_delay=0),
            max_inflight=1,
            breaker_threshold=1,
            breaker_cooldown=60.0,
        )
        app = make_app(edge_list_file, runner=runner, cache=ArtifactCache())
        with serving(app) as client:
            before = scrape(client)
            assert client.get("/t/toy/kcore/0/0/0")[0] == 200
            app._payloads.clear()
            for __ in range(2):  # the failed rebuild, then the breaker
                status, headers, __b = client.get("/t/toy/kcore/0/0/0")
                assert status == 200 and "Warning" in headers
            slow = []
            thread = threading.Thread(
                target=lambda: slow.append(client.get("/t/toy/degree/0/0/0"))
            )
            thread.start()
            deadline = time.monotonic() + 30
            while not runner.gate.admitted and time.monotonic() < deadline:
                time.sleep(0.005)
            assert client.get("/t/toy/kcore/0/1/0")[0] == 429
            thread.join(60)
            assert not thread.is_alive() and slow[0][0] == 200
            stats = check_pairs(client, before)
        run, resil = stats["runner"], stats["resil"]
        assert run["breaker_open"] == 1 and run["shed"] == 1
        assert resil["stale_tiles"]["served"] == 2
        assert resil["faults"]["fired"] == {"task_fail": 1, "task_delay": 1}


# ----------------------------------------------------------------------
# The key tree of /stats
# ----------------------------------------------------------------------
ANY = "any"  # a map whose keys depend on the run (span names, sites)

EVOLVE_RUN = {
    "windows": None, "trajectories": None, "live": None,
    "events": {
        "birth": None, "death": None, "merge": None,
        "split": None, "growth": None, "shrink": None,
    },
}

STATS_TREE = {
    "cache": {
        "hits": None, "misses": None, "memory_hits": None,
        "disk_hits": None, "puts": None, "evictions": None,
        "corrupt": None, "entries": None, "memory_bytes": None,
        "max_memory_bytes": None,
        "disk": {"entries": None, "bytes": None, "max_bytes": None},
    },
    "runner": {
        "builds": None, "coalesced": None, "errors": None,
        "retries": None, "shed": None,
        "breaker_open": None, "deadline_exceeded": None,
    },
    "warm_tiles": None,
    "uptime_s": None,
    "spans": ANY,
    "accel": {
        "backend": None,
        "native": {
            "attempted": None, "available": None, "so_path": None,
            "compiled": None, "compile_seconds": None, "error": None,
            "cache_dir": None,
        },
    },
    "resil": {
        "retry": {
            "max_attempts": None, "base_delay": None, "max_delay": None,
            "multiplier": None, "jitter": None,
        },
        "gate": {
            "limit": None, "bulk_limit": None, "admitted": None,
            "shed": None,
        },
        "breakers": {"tracked": None, "open": None},
        "stale_tiles": {"held": None, "served": None, "bytes": None},
        "request_timeout": None,
        "faults": {"spec": None, "passes": ANY, "fired": ANY},
    },
    "evolve": {
        "runs": {"demo": EVOLVE_RUN},
        "windows": None,
        "tracked_peaks": None,
        "live_trajectories": None,
    },
}


def key_tree(doc, shape):
    """``doc`` cut down to ``shape``'s form: dicts keep their keys,
    leaves and ``ANY`` maps become their pinned marker."""
    if shape is ANY:
        assert isinstance(doc, dict)
        return ANY
    if isinstance(shape, dict) and isinstance(doc, dict):
        return {
            key: key_tree(value, shape.get(key)) for key, value in doc.items()
        }
    return None


class TestStatsKeyTree:
    def test_every_section_keeps_its_keys(
        self, edge_list_file, tmp_path, fault_spec
    ):
        log = dynamic_planted_partition(
            n_windows=3, community_size=8, p_in=0.8, churn=0.2,
            noise_per_window=2, seed=0,
        )
        log.write(tmp_path / "dyn.tsv")
        fault_spec("task_fail:2")
        app = make_app(edge_list_file, runner=StageRunner(max_inflight=4))
        app.add_evolve_session(EvolveSession(
            "demo", str(tmp_path / "dyn.tsv"), measure="degree",
            horizon=1.0, origin=log.origin, resolution=32, tile_size=16,
        ))
        with serving(app) as client:
            status, cold = client.get_json("/stats")
            assert status == 200
            assert client.get("/t/toy/kcore/0/0/0")[0] == 200
            assert client.get("/evolve/windows")[0] == 200
            status, warm = client.get_json("/stats")
        unbuilt = dict(STATS_TREE["evolve"], runs={"demo": {"built": None}})
        assert key_tree(cold, STATS_TREE) == dict(STATS_TREE, evolve=unbuilt)
        assert key_tree(warm, STATS_TREE) == STATS_TREE
        assert warm["resil"]["faults"]["fired"] == {"task_fail": 1}
