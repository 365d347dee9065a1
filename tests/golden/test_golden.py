"""Golden-output corpus: the default path's outputs against recorded
digests (``tests/golden/accel.json`` and ``tests/golden/evolve.json``,
written by ``scripts/golden.py --update``).

The accel equivalence suites compare the tiers with each other, so a
change to code that all of them share passes there; these digests
catch it.  Structure (fields, trees, super trees) is compared on any
host.  Layout and heightfield digests come from float trigonometry and
square roots, whose last bits numpy does not promise across versions,
so they are compared only under the numpy version that recorded them.
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
EVOLVE = golden.load(golden.EVOLVE_CORPUS)["entries"]


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


def test_evolve_corpus_covers_every_log_stride_and_bins():
    assert sorted(EVOLVE) == sorted(
        golden.evolve_key(*timeline) for timeline in golden.EVOLVE_TIMELINES
    )


@pytest.mark.parametrize(
    "timeline", golden.EVOLVE_TIMELINES, ids=lambda t: golden.evolve_key(*t)
)
def test_evolve_matches_golden(timeline):
    """Every window's graph, field, trees and edge counts, and the
    tracker's event log."""
    key = golden.evolve_key(*timeline)
    got = {key: golden.evolve_entry(*timeline)}
    assert golden.differing(got, {key: EVOLVE[key]}) == []
