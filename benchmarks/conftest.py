"""Shared benchmark fixtures and reporting helpers.

Every benchmark writes its reproduced table/series to
``benchmarks/out/<name>.txt`` (and echoes it to stdout) so the numbers
survive pytest's output capture.

The loop oracles of ``tests/accel/oracles.py`` are the baselines the
kernel benches time the accel tiers against; this file puts that
directory on ``sys.path`` so a bench can ``from oracles import ...``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    EdgeScalarGraph,
    ScalarGraph,
    build_edge_tree,
    build_super_tree,
    build_vertex_tree,
)
from repro.graph import datasets
from repro.measures import core_numbers, truss_numbers

OUT_DIR = Path(__file__).parent / "out"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests" / "accel"))


@pytest.fixture(scope="session")
def report():
    """Writer: report(name, text) → benchmarks/out/name.txt + stdout."""
    OUT_DIR.mkdir(exist_ok=True)

    def write(name: str, text: str) -> None:
        (OUT_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n===== {name} =====\n{text}\n")

    return write


def best_of(fn, rounds: int = 3) -> float:
    """Minimum wall time of ``rounds`` calls (noise-robust timing)."""
    times = []
    for __ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


@pytest.fixture(scope="session")
def kcore_field():
    """Factory: dataset name → ScalarGraph with KC(v) scalars (cached)."""
    cache = {}

    def make(name: str) -> ScalarGraph:
        if name not in cache:
            graph = datasets.load(name).graph
            cache[name] = ScalarGraph(
                graph, core_numbers(graph).astype(np.float64)
            )
        return cache[name]

    return make


@pytest.fixture(scope="session")
def ktruss_field():
    """Factory: dataset name → EdgeScalarGraph with KT(e) scalars (cached)."""
    cache = {}

    def make(name: str) -> EdgeScalarGraph:
        if name not in cache:
            graph = datasets.load(name).graph
            cache[name] = EdgeScalarGraph(
                graph, truss_numbers(graph).astype(np.float64)
            )
        return cache[name]

    return make


@pytest.fixture(scope="session")
def kcore_super_tree(kcore_field):
    """Factory: dataset name → KC super tree (cached)."""
    cache = {}

    def make(name: str):
        if name not in cache:
            cache[name] = build_super_tree(build_vertex_tree(kcore_field(name)))
        return cache[name]

    return make


@pytest.fixture(scope="session")
def ktruss_super_tree(ktruss_field):
    """Factory: dataset name → KT edge super tree (cached)."""
    cache = {}

    def make(name: str):
        if name not in cache:
            cache[name] = build_super_tree(build_edge_tree(ktruss_field(name)))
        return cache[name]

    return make
