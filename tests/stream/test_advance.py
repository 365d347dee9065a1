"""Fence for :meth:`StreamingScalarTree.advance`, the array entry point.

``advance(graph, scalars, removed, added)`` must leave a stream in
exactly the state :meth:`~StreamingScalarTree.apply` reaches with the
equivalent ``RemoveEdge``/``AddEdge``/``SetScalar`` batch — same tree,
same super tree, same counters — and both must equal a from-scratch
build of the new snapshot.  Malformed input raises before any state
changes.
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


def _twins(graph, scalars, threshold=0.5):
    field = ScalarGraph(graph, np.asarray(scalars, dtype=np.float64))
    return (
        StreamingScalarTree(field, rebuild_threshold=threshold),
        StreamingScalarTree(field, rebuild_threshold=threshold),
    )


def _step(by_array, by_edits, graph, scalars):
    """Move ``by_array`` with ``advance`` and ``by_edits`` with the
    equivalent ``apply`` batch, then check both against each other and
    against a scratch build of the new snapshot."""
    n = graph.n_vertices
    old, new = _keys(by_edits.snapshot().graph), _keys(graph)
    gone = _pairs(np.setdiff1d(old, new), n)
    born = _pairs(np.setdiff1d(new, old), n)
    scalars = np.asarray(scalars, dtype=np.float64)
    changed = np.flatnonzero(scalars != by_edits.scalars)
    by_array.advance(graph, scalars, gone, born)
    by_edits.apply(
        [RemoveEdge(int(u), int(v)) for u, v in gone]
        + [AddEdge(int(u), int(v)) for u, v in born]
        + [SetScalar(int(v), float(scalars[v])) for v in changed]
    )

    assert by_array.stats == by_edits.stats
    assert np.array_equal(by_array.tree.parent, by_edits.tree.parent)
    assert np.array_equal(by_array.scalars, scalars)
    ref = build_vertex_tree(ScalarGraph(graph, scalars))
    assert np.array_equal(by_array.tree.parent, ref.parent)
    assert np.array_equal(by_array.tree.scalars, ref.scalars)
    assert by_array.snapshot().graph == graph

    sup, twin = by_array.super_tree(), by_edits.super_tree()
    ref_sup = build_super_tree(ref)
    for got in (sup, twin):
        assert np.array_equal(got.parent, ref_sup.parent)
        assert np.array_equal(got.scalars, ref_sup.scalars)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(got.members, ref_sup.members)
        )


def _random_graph(rng, n, density):
    m = int(density * n * (n - 1) / 2)
    return from_edge_array(rng.integers(0, n, (m, 2)), n_vertices=n)


@st.composite
def _scenario(draw):
    n = draw(st.integers(min_value=2, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    levels = draw(st.integers(min_value=1, max_value=4))
    # "empty": start from the edgeless, all-zero snapshot a timeline's
    # window 0 starts from.
    start = draw(st.sampled_from(["empty", "random"]))
    kinds = draw(st.lists(
        st.sampled_from(["both", "edges", "scalars", "none", "degree"]),
        min_size=1, max_size=5,
    ))
    threshold = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return n, seed, levels, start, kinds, threshold


@settings(max_examples=60, deadline=None)
@given(_scenario())
def test_advance_matches_apply_and_scratch(scenario):
    n, seed, levels, start, kinds, threshold = scenario
    rng = np.random.default_rng(seed)
    if start == "empty":
        graph, scalars = empty_graph(n), np.zeros(n)
    else:
        graph = _random_graph(rng, n, rng.uniform(0.05, 0.6))
        scalars = rng.integers(0, levels + 1, n).astype(np.float64)
    by_array, by_edits = _twins(graph, scalars, threshold)
    for kind in kinds:
        if kind in ("both", "edges", "degree"):
            graph = _random_graph(rng, n, rng.uniform(0.05, 0.6))
        if kind in ("both", "scalars"):
            scalars = rng.integers(0, levels + 1, n).astype(np.float64)
        elif kind == "degree":
            scalars = registry.compute("degree", graph)
        _step(by_array, by_edits, graph, scalars)


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
    from the snapshot's own CSR).  The native rebuild runs at every
    size under ``native`` and never under ``vector``."""
    calls = set()
    real = StreamingScalarTree._rebuild_native

    def spy(self, order, scalars):
        ok = real(self, order, scalars)
        calls.add((self.delta.n_pending_edits == 0, ok))
        return ok

    monkeypatch.setattr(StreamingScalarTree, "_rebuild_native", spy)
    rng = np.random.default_rng(n)
    with accel.using(backend):
        by_array, by_edits = _twins(empty_graph(n), np.zeros(n))
        for graph in [_core_and_fringe(rng, n, m) for _ in range(3)] + [
            generators.erdos_renyi(n, m, seed=n + 1)
        ]:
            assert (graph.n_edges >= 2048) == (m > 2048)
            _step(
                by_array, by_edits, graph,
                registry.compute("degree", graph),
            )
        # Window 0 and the re-drawn graph rebuild; the churn replays.
        assert by_array.stats["full_rebuilds"] == 2
        assert by_array.stats["incremental"] == 2
    # The native rebuild runs under ``native``, and after ``advance``
    # straight from the snapshot's CSR (empty overlay); ``apply``
    # compacts.
    native = backend == "native"
    assert calls == ({(True, True), (False, True)} if native else set())


def test_edge_only_and_scalar_only_batches():
    graph = generators.watts_strogatz(40, 4, 0.2, seed=3)
    scalars = registry.compute("degree", graph)
    by_array, by_edits = _twins(graph, scalars)
    # Edges only: swap one edge, keep the field.
    keys = _keys(graph)
    moved = from_edge_array(
        np.concatenate([_pairs(keys[1:], 40), [[0, 20]]]), n_vertices=40
    )
    assert moved.n_edges == graph.n_edges
    _step(by_array, by_edits, moved, scalars)
    # Scalars only: same graph, lower one vertex.
    lowered = scalars.copy()
    lowered[7] -= 1.0
    _step(by_array, by_edits, moved, lowered)
    assert by_array.stats["batches"] == 2


def test_no_change_is_a_counted_noop():
    graph = generators.watts_strogatz(20, 4, 0.2, seed=1)
    scalars = registry.compute("degree", graph)
    stream = StreamingScalarTree(ScalarGraph(graph, scalars))
    tree = stream.tree
    empty = np.empty((0, 2), dtype=np.int64)
    assert stream.advance(graph, scalars, empty, empty) is tree
    assert stream.stats["batches"] == 1
    assert stream.stats["last_suffix"] == 0


class TestMalformedInput:
    @pytest.fixture
    def stream(self):
        graph = generators.watts_strogatz(12, 4, 0.2, seed=2)
        scalars = registry.compute("degree", graph)
        stream = StreamingScalarTree(ScalarGraph(graph, scalars))
        stream.apply([SetScalar(0, 9.0)])  # stats off their defaults
        return stream

    def _call(self, stream, graph=None, scalars=None, removed=None,
              added=None):
        """``advance`` to a one-edge-added snapshot, with one argument
        swapped for a malformed one."""
        base = stream.snapshot().graph
        new = from_edge_array(
            np.concatenate([base.edge_array(), [[0, 6]]]), n_vertices=12
        )
        assert new.n_edges == base.n_edges + 1
        stream.advance(
            new if graph is None else graph,
            stream.scalars.copy() if scalars is None else scalars,
            np.empty((0, 2), dtype=np.int64) if removed is None else removed,
            np.array([[0, 6]]) if added is None else added,
        )

    @pytest.mark.parametrize("kwargs, error", [
        ({"graph": empty_graph(13)}, ValueError),
        ({"scalars": np.zeros(11)}, ValueError),
        ({"scalars": np.zeros((12, 1))}, ValueError),
        ({"scalars": np.full(12, np.nan)}, ValueError),
        ({"scalars": np.r_[np.zeros(11), np.inf]}, ValueError),
        ({"added": np.array([[0, 12]])}, IndexError),
        ({"added": np.array([[-1, 6]])}, IndexError),
        ({"removed": np.array([[12, 0]]),
          "added": np.array([[0, 6], [1, 12]])}, IndexError),
        ({"added": np.array([[6, 6]])}, ValueError),
        ({"added": np.array([[0, 6, 1]])}, ValueError),
        ({"added": np.empty((0, 2), dtype=np.int64)}, ValueError),
        ({"removed": np.array([[0, 1]])}, ValueError),
    ])
    def test_rejected_without_side_effects(self, stream, kwargs, error):
        tree, delta = stream.tree, stream.delta
        parent = tree.parent.copy()
        scalars = stream.scalars.copy()
        stats = dict(stream.stats)
        with pytest.raises(error):
            self._call(stream, **kwargs)
        assert stream.tree is tree
        assert np.array_equal(stream.tree.parent, parent)
        assert stream.delta is delta
        assert np.array_equal(stream.scalars, scalars)
        assert stream.stats == stats

    def test_well_formed_call_goes_through(self, stream):
        self._call(stream)
        assert stream.stats["batches"] == 2
        assert stream.delta.has_edge(0, 6)
