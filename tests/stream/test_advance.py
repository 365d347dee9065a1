"""Fence for :meth:`StreamingScalarTree.apply`'s impact level θ and
its native rebuild.

:func:`impact_level` must equal the θ rule written per edit, and a
stream moved from snapshot to snapshot by ``RemoveEdge``/``AddEdge``/
``SetScalar`` batches must equal a from-scratch build of every
snapshot, whichever tier rebuilt it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel
from repro.accel import native as accel_native
from repro.core import ScalarGraph, build_super_tree, build_vertex_tree
from repro.engine import registry
from repro.graph import generators
from repro.graph.builders import empty_graph, from_edge_array
from repro.stream import AddEdge, RemoveEdge, SetScalar, StreamingScalarTree
from repro.stream.incremental import impact_level

BACKENDS = ["vector"] + (["native"] if accel_native.available() else [])


def _keys(graph):
    """Canonical ``u * n + v`` keys (u < v) of a graph's edges."""
    pairs = graph.edge_array()
    return pairs[:, 0] * graph.n_vertices + pairs[:, 1]


def _pairs(keys, n):
    return np.column_stack(np.divmod(keys, n)).reshape(-1, 2)


def _step(stream, graph, scalars):
    """Move ``stream`` to the snapshot (``graph``, ``scalars``) with the
    equivalent edit batch, then check it against a scratch build."""
    n = graph.n_vertices
    old, new = _keys(stream.snapshot().graph), _keys(graph)
    gone = _pairs(np.setdiff1d(old, new), n)
    born = _pairs(np.setdiff1d(new, old), n)
    scalars = np.asarray(scalars, dtype=np.float64)
    changed = np.flatnonzero(scalars != stream.scalars)
    stream.apply(
        [RemoveEdge(int(u), int(v)) for u, v in gone]
        + [AddEdge(int(u), int(v)) for u, v in born]
        + [SetScalar(int(v), float(scalars[v])) for v in changed]
    )

    assert np.array_equal(stream.scalars, scalars)
    ref = build_vertex_tree(ScalarGraph(graph, scalars))
    assert np.array_equal(stream.tree.parent, ref.parent)
    assert np.array_equal(stream.tree.scalars, ref.scalars)
    assert stream.snapshot().graph == graph

    sup, ref_sup = stream.super_tree(), build_super_tree(ref)
    assert np.array_equal(sup.parent, ref_sup.parent)
    assert np.array_equal(sup.scalars, ref_sup.scalars)
    assert all(
        np.array_equal(a, b) for a, b in zip(sup.members, ref_sup.members)
    )


def _theta_by_edit(scalars, before, edges):
    """The θ rule written per edit: scalar changes count both values,
    edges the larger of their endpoint minimum before and after."""
    theta = -np.inf
    for v, old in before.items():
        theta = max(theta, old, scalars[v])
    for u, v in edges:
        min_before = min(before.get(u, scalars[u]), before.get(v, scalars[v]))
        theta = max(theta, min_before, min(scalars[u], scalars[v]))
    return theta


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_impact_level_matches_per_edit_rule(data):
    n = data.draw(st.integers(min_value=2, max_value=12))
    level = st.integers(min_value=0, max_value=4).map(float)
    scalars = data.draw(st.lists(level, min_size=n, max_size=n))
    vertex = st.integers(min_value=0, max_value=n - 1)
    # Old values may equal the current ones: a vertex changed and set
    # back within one batch stays in ``before``.
    before = data.draw(st.dictionaries(vertex, level, max_size=n))
    edges = data.draw(st.lists(
        st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
        max_size=8,
    ))
    got = impact_level(
        np.array(scalars),
        np.array(list(before), dtype=np.int64),
        np.array(list(before.values())),
        np.array(edges, dtype=np.int64).reshape(-1, 2),
    )
    assert got == _theta_by_edit(scalars, before, edges)


def _core_and_fringe(rng, n, m):
    """A dense core on the first 8/9 of the vertices plus a sparse
    fringe re-paired on every call: fringe churn stays at low degree
    levels, so a degree field replays incrementally."""
    core = n * 8 // 9
    fringe = rng.integers(core, n, (n - core, 2))
    pairs = np.concatenate([
        generators.erdos_renyi(core, m, seed=n).edge_array(), fringe
    ])
    return from_edge_array(pairs, n_vertices=n)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n, m", [(200, 1200), (700, 4200)])
def test_native_rebuild_threshold_sizes(monkeypatch, backend, n, m):
    """Graphs on both sides of 2,048 edges, where a size floor once
    kept small rebuilds in Python: fringe churn (incremental replay)
    and a batch that crosses the rebuild threshold (a full rebuild
    from the compacted snapshot).  The native rebuild runs at every
    size under ``native`` and never under ``vector``."""
    calls = []
    real = StreamingScalarTree._rebuild_native

    def spy(self, order, scalars):
        ok = real(self, order, scalars)
        calls.append(ok)
        return ok

    monkeypatch.setattr(StreamingScalarTree, "_rebuild_native", spy)
    rng = np.random.default_rng(n)
    with accel.using(backend):
        stream = StreamingScalarTree(
            ScalarGraph(empty_graph(n), np.zeros(n))
        )
        for graph in [_core_and_fringe(rng, n, m) for _ in range(3)] + [
            generators.erdos_renyi(n, m, seed=n + 1)
        ]:
            assert (graph.n_edges >= 2048) == (m > 2048)
            _step(stream, graph, registry.compute("degree", graph))
        # Window 0 and the re-drawn graph rebuild; the churn replays.
        assert stream.stats["full_rebuilds"] == 2
        assert stream.stats["incremental"] == 2
    # The initial build and both rebuilds, each through the kernel.
    assert calls == ([True] * 3 if backend == "native" else [])
