"""Shared fixtures: paper worked examples and small reference graphs.

Also the session's seeded fault schedule.  With ``$REPRO_FAULTS`` set
(CI runs tier-1 under ``worker_kill:1;task_fail:3;task_delay:5:0.02``),
the schedule parsed at session start is put back after every test that
installs its own, with its pass counters intact, so each rule still
lands in a later job.  At session end a rule that never fired fails the
run: a scheduled fault that cannot fire checks nothing.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import EdgeScalarGraph, ScalarGraph
from repro.graph import from_edges
from repro.resil import faults

_SEEDED = None


def _install(schedule) -> None:
    with faults._GLOBAL_LOCK:
        faults._ACTIVE = schedule
        faults._LOADED = True


def pytest_sessionstart(session):
    global _SEEDED
    spec = os.environ.get(faults.ENV_VAR, "").strip()
    _SEEDED = faults.FaultSchedule.parse(spec) if spec else None
    if _SEEDED is not None:
        _install(_SEEDED)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_teardown(item, nextitem):
    yield
    if _SEEDED is not None and faults.schedule() is not _SEEDED:
        _install(_SEEDED)


def _never_fired():
    snap = _SEEDED.snapshot()
    return snap, [site for site in _SEEDED.rules if site not in snap["fired"]]


def pytest_sessionfinish(session, exitstatus):
    if _SEEDED is not None and _never_fired()[1]:
        if session.exitstatus == pytest.ExitCode.OK:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter):
    if _SEEDED is None:
        return
    snap, never = _never_fired()
    terminalreporter.write_sep("-", "seeded faults")
    terminalreporter.write_line(
        f"{snap['spec']!r}: passes {snap['passes']}, fired {snap['fired']}"
    )
    if never:
        terminalreporter.write_line(
            f"never fired: {', '.join(never)} (the session fails)", red=True
        )


@pytest.fixture
def triangle_plus_tail() -> ScalarGraph:
    """Triangle 0-1-2 with a pendant 3; distinct scalar values."""
    graph = from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
    return ScalarGraph(graph, [4.0, 3.0, 2.0, 1.0])


@pytest.fixture
def paper_fig2() -> ScalarGraph:
    """A scalar graph honouring every statement about paper Fig 2.

    The figure gives the component structure rather than exact values;
    we reconstruct a graph satisfying all of them (0-based vertex i is
    the paper's v_{i+1}):

    * the maximal 2.5-connected components are C1(v1, v2, v3, v5) and
      C2(v4, v6);
    * C1 ⊂ C3(v1..v7), a maximal 2-connected component;
    * the scalar tree is rooted at n9, i.e. v9 has the minimum scalar.
    """
    edges = [
        (0, 1), (1, 2), (2, 4),   # C1 = {v1, v2, v3, v5}
        (3, 5),                   # C2 = {v4, v6}
        (4, 6), (5, 6),           # v7 joins C1 and C2 → C3 = {v1..v7}
        (6, 7), (7, 8),           # chain to v8, then root v9
    ]
    graph = from_edges(edges)
    scalars = [5.0, 4.5, 4.0, 3.0, 3.5, 2.6, 2.0, 1.5, 1.0]
    return ScalarGraph(graph, scalars)


@pytest.fixture
def paper_fig3() -> ScalarGraph:
    """The tie-value example of paper Fig 3(a).

    Five vertices where several share a scalar value, arranged so that
    Algorithm 1 alone produces a subtree that is *not* a maximal
    α-connected component and Algorithm 2 must merge nodes n3, n4, n5
    into one super node.
    """
    # v1.scalar=3, v3=v4=v5 share scalar 2, v2.scalar=1.
    # v1 attaches under v3; v3, v4, v5 form a path of equal values.
    edges = [(0, 2), (2, 3), (3, 4), (4, 1)]
    graph = from_edges(edges)
    return ScalarGraph(graph, [3.0, 1.0, 2.0, 2.0, 2.0])


@pytest.fixture
def random_scalar_graph():
    """Factory: seeded random scalar graph with repeated values."""

    def make(n=40, m=90, levels=5, seed=0) -> ScalarGraph:
        from repro.graph.generators import erdos_renyi

        rng = np.random.default_rng(seed)
        graph = erdos_renyi(n, min(m, n * (n - 1) // 2), seed=seed)
        scalars = rng.integers(0, levels, n).astype(np.float64)
        return ScalarGraph(graph, scalars)

    return make


@pytest.fixture
def random_edge_scalar_graph():
    """Factory: seeded random edge scalar graph with repeated values."""

    def make(n=30, m=70, levels=5, seed=0) -> EdgeScalarGraph:
        from repro.graph.generators import erdos_renyi

        rng = np.random.default_rng(seed)
        graph = erdos_renyi(n, min(m, n * (n - 1) // 2), seed=seed)
        scalars = rng.integers(0, levels, graph.n_edges).astype(np.float64)
        return EdgeScalarGraph(graph, scalars)

    return make
