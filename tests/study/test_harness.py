"""Unit tests for the study harness (Tables IV–VI shapes)."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.study import format_table, run_task1, run_task2, run_task3

_SPEC = importlib.util.spec_from_file_location(
    "golden",
    Path(__file__).resolve().parents[2] / "scripts" / "golden.py",
)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

BASELINES = golden.load(golden.BASELINES_CORPUS)


@pytest.fixture(scope="module")
def task1_rows():
    return run_task1(**golden.STUDY_TASK12)


@pytest.fixture(scope="module")
def task2_rows():
    return run_task2(**golden.STUDY_TASK12)


@pytest.fixture(scope="module")
def task3_rows():
    return run_task3(**golden.STUDY_TASK3)


def _by(rows, dataset, method):
    return next(r for r in rows if r.dataset == dataset and r.method == method)


class TestShapes:
    def test_task1_grid(self, task1_rows):
        assert len(task1_rows) == 2 * 3
        assert {r.method for r in task1_rows} == {
            "terrain", "lanet_vi", "openord",
        }

    def test_task3_methods(self, task3_rows):
        assert {r.method for r in task3_rows} == {"terrain", "openord"}

    def test_rows_well_formed(self, task1_rows):
        for r in task1_rows:
            assert 0.0 <= r.accuracy <= 1.0
            assert r.mean_time > 0
            assert r.task == 1


class TestPaperShape:
    """The comparisons the paper's tables demonstrate."""

    def test_task1_terrain_dominates_accuracy(self, task1_rows):
        for name in ("grqc", "ppi"):
            terr = _by(task1_rows, name, "terrain")
            for method in ("lanet_vi", "openord"):
                assert terr.accuracy >= _by(task1_rows, name, method).accuracy

    def test_task1_terrain_fastest(self, task1_rows):
        for name in ("grqc", "ppi"):
            terr = _by(task1_rows, name, "terrain")
            for method in ("lanet_vi", "openord"):
                assert terr.mean_time < _by(task1_rows, name, method).mean_time

    def test_task1_terrain_perfect(self, task1_rows):
        for name in ("grqc", "ppi"):
            assert _by(task1_rows, name, "terrain").accuracy == 1.0

    def test_task2_terrain_dominates(self, task2_rows):
        for name in ("grqc", "ppi"):
            terr = _by(task2_rows, name, "terrain")
            for method in ("lanet_vi", "openord"):
                other = _by(task2_rows, name, method)
                assert terr.accuracy >= other.accuracy
                assert terr.mean_time < other.mean_time

    def test_task2_harder_than_task1_for_baselines(
        self, task1_rows, task2_rows
    ):
        for name in ("grqc", "ppi"):
            for method in ("lanet_vi", "openord"):
                t1 = _by(task1_rows, name, method)
                t2 = _by(task2_rows, name, method)
                assert t2.mean_time > t1.mean_time

    def test_task3_terrain_wins(self, task3_rows):
        terr = _by(task3_rows, "astro", "terrain")
        oo = _by(task3_rows, "astro", "openord")
        assert terr.accuracy >= oo.accuracy
        assert terr.mean_time < oo.mean_time


class TestGolden:
    """The rows recorded in ``tests/golden/baselines.json``.  They rest
    on float layouts, so like the layout digests they are compared only
    under the numpy version that recorded them."""

    @pytest.fixture(autouse=True)
    def _same_numpy(self):
        if np.__version__ != BASELINES["numpy"]:
            pytest.skip(
                f"study rows recorded under numpy {BASELINES['numpy']}, "
                f"running {np.__version__}"
            )

    def test_task1_rows(self, task1_rows):
        assert golden.study_rows(task1_rows) == BASELINES["study"]["task1"]

    def test_task2_rows(self, task2_rows):
        assert golden.study_rows(task2_rows) == BASELINES["study"]["task2"]

    def test_task3_rows(self, task3_rows):
        assert golden.study_rows(task3_rows) == BASELINES["study"]["task3"]


class TestFormatting:
    def test_format_table(self, task1_rows):
        text = format_table(task1_rows)
        assert "grqc" in text
        assert "terrain" in text
        lines = text.splitlines()
        assert len(lines) == 3  # header + 2 datasets

    def test_reproducible(self):
        a = run_task1(names=("ppi",), n_participants=5, seed=1)
        b = run_task1(names=("ppi",), n_participants=5, seed=1)
        assert [(r.accuracy, r.mean_time) for r in a] == [
            (r.accuracy, r.mean_time) for r in b
        ]
