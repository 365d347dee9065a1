"""Golden-output corpus: the default path's outputs against recorded
digests (``tests/golden/accel.json``, ``tests/golden/evolve.json`` and
the layouts of ``tests/golden/baselines.json``, written by
``scripts/golden.py --update``; the study rows in ``baselines.json`` are
checked by ``tests/study/test_harness.py``).

The accel equivalence suites compare the tiers with each other, so a
change to code that all of them share passes there; these digests
catch it.  Structure (fields, trees, super trees) is compared on any
host.  Layout and heightfield digests come from float trigonometry and
square roots, whose last bits numpy does not promise across versions,
so they are compared only under the numpy version that recorded them;
so are the evolve diff summaries and diff tiles, which are differences
of rasterized layouts.
"""

import importlib.util
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden",
    Path(__file__).resolve().parents[2] / "scripts" / "golden.py",
)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

CORPUS = golden.load()
KEYS = sorted(CORPUS["entries"])
EVOLVE_CORPUS = golden.load(golden.EVOLVE_CORPUS)
EVOLVE = EVOLVE_CORPUS["entries"]
BASELINES = golden.load(golden.BASELINES_CORPUS)


@lru_cache(maxsize=None)
def _computed(key):
    dataset, measure = key.split("/")
    return golden.entry(dataset, measure)


def test_corpus_covers_every_dataset_and_measure():
    assert KEYS == sorted(
        f"{d}/{m}" for d in golden.DATASETS for m in golden.MEASURES
    )
    assert CORPUS["resolution"] == golden.RESOLUTION


@pytest.mark.parametrize("key", KEYS)
def test_structure_matches_golden(key):
    recorded = CORPUS["entries"][key]
    got = _computed(key)
    for name in sorted(set(recorded) - set(golden.GEOMETRY)):
        assert got[name] == recorded[name], f"{key}: {name}"


@pytest.mark.parametrize("key", KEYS)
def test_geometry_matches_golden(key):
    if np.__version__ != CORPUS["numpy"]:
        pytest.skip(
            f"geometry recorded under numpy {CORPUS['numpy']}, "
            f"running {np.__version__}"
        )
    recorded = CORPUS["entries"][key]
    got = _computed(key)
    for name in golden.GEOMETRY:
        assert got[name] == recorded[name], f"{key}: {name}"


@lru_cache(maxsize=None)
def _evolve(timeline):
    return golden.evolve_entry(*timeline)


def _split(entry):
    """``(entry without its diffs, its diffs)``."""
    rest = {k: v for k, v in entry.items() if k != "diffs"}
    return rest, {"diffs": entry.get("diffs", [])}


def test_evolve_corpus_covers_every_log_stride_and_bins():
    assert sorted(EVOLVE) == sorted(
        golden.evolve_key(*timeline) for timeline in golden.EVOLVE_TIMELINES
    )
    assert sorted(k for k, e in EVOLVE.items() if "diffs" in e) == sorted(
        golden.evolve_key(*t) for t in golden.EVOLVE_DIFF_TIMELINES
    )


@pytest.mark.parametrize(
    "timeline", golden.EVOLVE_TIMELINES, ids=lambda t: golden.evolve_key(*t)
)
def test_evolve_matches_golden(timeline):
    """Every window's graph, field, trees and edge counts, and the
    tracker's event log."""
    key = golden.evolve_key(*timeline)
    got = {key: _split(_evolve(timeline))[0]}
    assert golden.differing(got, {key: _split(EVOLVE[key])[0]}) == []


@pytest.mark.parametrize(
    "timeline", golden.EVOLVE_DIFF_TIMELINES,
    ids=lambda t: golden.evolve_key(*t),
)
def test_evolve_diff_tiles_match_golden(timeline):
    """Each window's ``DiffTiler.summary`` and diff-tile payloads."""
    if np.__version__ != EVOLVE_CORPUS["numpy"]:
        pytest.skip(
            f"diffs recorded under numpy {EVOLVE_CORPUS['numpy']}, "
            f"running {np.__version__}"
        )
    key = golden.evolve_key(*timeline)
    got = {key: _split(_evolve(timeline))[1]}
    want = _split(EVOLVE[key])[1]
    assert len(want["diffs"]) >= 2
    assert golden.differing(got, {key: want}) == []


def test_baselines_corpus_covers_every_layout():
    assert sorted(BASELINES["entries"]) == sorted(golden.SPRING_DATASETS)
    assert sorted(BASELINES["study"]) == ["task1", "task2", "task3"]


@pytest.mark.parametrize("dataset", golden.SPRING_DATASETS)
def test_baseline_layouts_match_golden(dataset):
    """``openord_layout`` and ``spring_layout`` positions: all geometry."""
    if np.__version__ != BASELINES["numpy"]:
        pytest.skip(
            f"layouts recorded under numpy {BASELINES['numpy']}, "
            f"running {np.__version__}"
        )
    got = {dataset: golden.baseline_entry(dataset)}
    want = {dataset: BASELINES["entries"][dataset]}
    assert golden.differing(got, want) == []
