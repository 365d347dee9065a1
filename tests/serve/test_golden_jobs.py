"""Golden serve jobs: every job route of a live server answers with the
in-process job result, and each result matches ``tests/golden/serve.json``
(written by ``scripts/golden.py --update``).

The jobs are :func:`golden.serve_jobs` on amazon × {kcore, ktruss}:
every tile at every level, the peaks, a hit at the highest summit and
one off the terrain, the treemap and the profile.  A served body must
carry its job's result on any numpy version, from an app over an
unbounded cache and from one over a zero budget, where every stage
result is evicted as soon as the next is stored and each job rebuilds
what it reads.  The digests of results
that layout geometry enters are compared only under the numpy version
that recorded them, as in ``tests/golden/test_golden.py``.
"""

import importlib.util
import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.engine import ArtifactCache
from repro.serve import LODPyramid, ServeApp, ServerThread
from repro.serve import workers

from serve_client import Client

_SPEC = importlib.util.spec_from_file_location(
    "golden",
    Path(__file__).resolve().parents[2] / "scripts" / "golden.py",
)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

SERVE = golden.load(golden.SERVE_CORPUS)
DS = golden.SERVE_DATASET
#: Memory budgets of the served apps' caches: unbounded, and zero.
BUDGETS = (None, 0)


def url(measure, job, args):
    """The route that answers with ``job(pyramid, *args)``."""
    query = f"dataset={DS}&measure={measure}"
    if job is LODPyramid.tile_payload:
        return f"/t/{DS}/{measure}/" + "/".join(str(a) for a in args)
    if job is workers.peaks:
        return f"/peaks?{query}&count={args[0]}"
    if job is workers.hit:
        return f"/hit?{query}&x={args[0]!r}&y={args[1]!r}"
    if job is workers.treemap_svg:
        return f"/treemap.svg?{query}&size={args[0]}"
    assert job is workers.profile_svg
    return f"/profile.svg?{query}&width={args[0]}&height={args[1]}"


def carried(job, headers, body):
    """The job result a reply carries."""
    if job is LODPyramid.tile_payload:
        return body, headers["ETag"]
    if job in (workers.treemap_svg, workers.profile_svg):
        return body.decode()
    doc = json.loads(body)
    if job is workers.peaks:
        return doc["peaks"]
    return {
        k: v for k, v in doc.items() if k not in ("dataset", "measure", "x", "y")
    }


@lru_cache(maxsize=None)
def results(measure):
    return golden.serve_results(measure)


@lru_cache(maxsize=None)
def digests(measure):
    return golden.serve_entry(results(measure))


@pytest.fixture(scope="module")
def served():
    """``{budget: {measure: {name: (job, reply)}}}``, one live server
    per cache budget."""
    replies = {}
    for budget in BUDGETS:
        app = ServeApp(
            cache=ArtifactCache(max_memory_bytes=budget),
            tile_size=golden.SERVE_TILE_SIZE,
            levels=golden.SERVE_LEVELS,
        )
        app.add_dataset(DS, list(golden.SERVE_MEASURES))
        with ServerThread(app) as server:
            client = Client(server.port)
            replies[budget] = {
                measure: {
                    name: (job, client.get(url(measure, job, args)))
                    for name, (job, *args) in golden.serve_jobs(
                        golden.serve_pyramid(measure)
                    ).items()
                }
                for measure in golden.SERVE_MEASURES
            }
        if budget == 0:
            assert app.cache.stats["evictions"] > 0
    return replies


def test_corpus_covers_every_measure_and_job():
    assert sorted(SERVE["entries"]) == sorted(
        f"{DS}/{m}" for m in golden.SERVE_MEASURES
    )
    assert SERVE["tile_size"] == golden.SERVE_TILE_SIZE
    assert SERVE["levels"] == golden.SERVE_LEVELS
    for measure in golden.SERVE_MEASURES:
        assert sorted(SERVE["entries"][f"{DS}/{measure}"]) == sorted(
            digests(measure)
        )


@pytest.mark.parametrize("measure", golden.SERVE_MEASURES)
def test_served_bodies_carry_job_results(served, measure):
    want = results(measure)
    for budget, by_measure in served.items():
        for name, (job, (status, headers, body)) in by_measure[measure].items():
            assert status == 200, (budget, name, body)
            assert carried(job, headers, body) == want[name], (budget, name)


@pytest.mark.parametrize("measure", golden.SERVE_MEASURES)
def test_structure_matches_golden(measure):
    recorded = SERVE["entries"][f"{DS}/{measure}"]
    got = digests(measure)
    for name in golden.SERVE_STRUCTURE:
        assert got[name] == recorded[name], f"{measure}: {name}"


@pytest.mark.parametrize("measure", golden.SERVE_MEASURES)
def test_geometry_matches_golden(measure):
    if np.__version__ != SERVE["numpy"]:
        pytest.skip(
            f"geometry recorded under numpy {SERVE['numpy']}, "
            f"running {np.__version__}"
        )
    recorded = SERVE["entries"][f"{DS}/{measure}"]
    got = digests(measure)
    geometry = sorted(set(recorded) - set(golden.SERVE_STRUCTURE))
    assert [n for n in geometry if got[n] != recorded[n]] == []
