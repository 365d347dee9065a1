"""Property: streaming maintenance ≡ static rebuild on the final snapshot.

For ANY edit sequence, replaying it through a
:class:`~repro.stream.incremental.StreamingScalarTree` must yield a tree
with the same node set, parent pointers and heights as running
Algorithm 1 (:func:`build_vertex_tree`) from scratch on the final
compacted snapshot — the whole correctness contract of the checkpoint /
rollback / suffix-replay machinery.  Randomized hypothesis-style over
the repo's own graph generators, with heavy scalar ties to stress the
super-node paths too.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ScalarGraph, build_super_tree, build_vertex_tree
from repro.graph import generators
from repro.stream import AddEdge, RemoveEdge, SetScalar, StreamingScalarTree

_GENERATORS = [
    lambda n, seed: generators.erdos_renyi(
        n, min(2 * n, n * (n - 1) // 2), seed=seed
    ),
    lambda n, seed: generators.watts_strogatz(n, 4, 0.2, seed=seed),
    lambda n, seed: generators.powerlaw_cluster(n, 2, 0.5, seed=seed),
]


@st.composite
def _scenario(draw):
    n = draw(st.integers(min_value=5, max_value=40))
    gen = draw(st.sampled_from(_GENERATORS))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    levels = draw(st.integers(min_value=1, max_value=5))
    scalars = draw(
        st.lists(
            st.integers(min_value=0, max_value=levels),
            min_size=n, max_size=n,
        )
    )
    vertex = st.integers(min_value=0, max_value=n - 1)
    edge = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    edit = st.one_of(
        st.builds(
            SetScalar,
            vertex,
            st.integers(min_value=0, max_value=levels).map(float),
        ),
        st.builds(lambda e: AddEdge(*e), edge),
        st.builds(lambda e: RemoveEdge(*e), edge),
    )
    batches = draw(
        st.lists(
            st.lists(edit, min_size=0, max_size=6),
            min_size=1, max_size=8,
        )
    )
    threshold = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return n, gen, seed, scalars, batches, threshold


def _heights(tree) -> np.ndarray:
    out = np.zeros(tree.n_nodes, dtype=np.int64)
    for node in tree.iter_topological():
        p = tree.parent[node]
        if p >= 0:
            out[node] = out[p] + 1
    return out


@settings(max_examples=60, deadline=None)
@given(_scenario())
def test_replay_matches_static_build(scenario):
    n, gen, seed, scalars, batches, threshold = scenario
    graph = gen(n, seed)
    field = ScalarGraph(graph, np.array(scalars, dtype=np.float64))
    stream = StreamingScalarTree(field, rebuild_threshold=threshold)

    for batch in batches:
        stream.apply(batch)

    ref = build_vertex_tree(stream.snapshot())
    # Same node set (one node per vertex), same parents, same heights.
    assert stream.tree.n_nodes == ref.n_nodes == graph.n_vertices
    assert np.array_equal(stream.tree.parent, ref.parent)
    assert np.array_equal(stream.tree.scalars, ref.scalars)
    assert np.array_equal(_heights(stream.tree), _heights(ref))
    stream.tree.validate()


@settings(max_examples=25, deadline=None)
@given(_scenario())
def test_maintained_super_tree_matches_static_build(scenario):
    n, gen, seed, scalars, batches, threshold = scenario
    graph = gen(n, seed)
    field = ScalarGraph(graph, np.array(scalars, dtype=np.float64))
    stream = StreamingScalarTree(field, rebuild_threshold=threshold)

    for batch in batches:
        stream.apply(batch)
        stream.super_tree()  # build (and cache) it after every batch

    sup = stream.super_tree()
    ref = build_super_tree(build_vertex_tree(stream.snapshot()))
    assert np.array_equal(sup.parent, ref.parent)
    assert np.array_equal(sup.scalars, ref.scalars)
    assert all(
        np.array_equal(a, b) for a, b in zip(sup.members, ref.members)
    )
    sup.validate()
