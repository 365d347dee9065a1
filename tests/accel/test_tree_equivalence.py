"""Property: vector/native tree construction ≡ the loop oracles,
parent-for-parent.

The edge-ordered merge scan must reproduce the adjacency-walk builds
of Algorithms 1 and 3 (``oracles.py``) byte-identically — including on
disconnected graphs, isolated vertices and duplicate scalar values
(rank tie-breaks).  When the native tier compiled (a toolchain exists),
it joins the same three-way contract; without one it resolves to
vector, so the assertions below stay meaningful either way.
"""

import numpy as np
from hypothesis import given, settings

from repro import accel
from repro.core import (
    EdgeScalarGraph,
    ScalarGraph,
    build_super_tree,
    build_vertex_tree,
)
from repro.core.edge_tree import build_edge_tree, build_edge_tree_naive
from repro.graph.builders import from_edge_array

from accel_strategies import scalar_fields
from oracles import oracle_edge_tree, oracle_vertex_tree

TIERS = ("vector", "native")


def _on(tier, build, field):
    with accel.using(tier):
        return build(field)


@settings(max_examples=50, deadline=None)
@given(scalar_fields())
def test_vertex_tree_parents_identical(field):
    graph, scalars = field
    sg = ScalarGraph(graph, scalars)
    oracle = oracle_vertex_tree(sg)
    for tier in TIERS:
        tree = _on(tier, build_vertex_tree, sg)
        assert np.array_equal(oracle.parent, tree.parent), tier
        assert np.array_equal(oracle.scalars, tree.scalars)
        tree.validate()


@settings(max_examples=30, deadline=None)
@given(scalar_fields())
def test_vertex_super_trees_identical(field):
    """Downstream of identical parents, super trees agree too."""
    graph, scalars = field
    sg = ScalarGraph(graph, scalars)
    a = build_super_tree(oracle_vertex_tree(sg))
    for tier in TIERS:
        b = build_super_tree(_on(tier, build_vertex_tree, sg))
        assert np.array_equal(a.parent, b.parent)
        assert np.array_equal(a.scalars, b.scalars)
        assert all(np.array_equal(x, y) for x, y in zip(a.members, b.members))


@settings(max_examples=50, deadline=None)
@given(scalar_fields())
def test_edge_tree_parents_identical(field):
    graph, vertex_scalars = field
    rng = np.random.default_rng(int(vertex_scalars.sum()) % 1000)
    edge_scalars = rng.integers(0, 4, graph.n_edges).astype(np.float64)
    eg = EdgeScalarGraph(graph, edge_scalars)
    oracle = oracle_edge_tree(eg)
    for tier in TIERS:
        tree = _on(tier, build_edge_tree, eg)
        assert np.array_equal(oracle.parent, tree.parent), tier
        assert np.array_equal(oracle.scalars, tree.scalars)
        if graph.n_edges:
            tree.validate()


@settings(max_examples=15, deadline=None)
@given(scalar_fields())
def test_edge_tree_vector_matches_dual_graph_oracle(field):
    """Algorithm 3 also agrees with the line-graph baseline on subtree
    partitions at every level."""
    graph, vertex_scalars = field
    rng = np.random.default_rng(graph.n_edges % 997)
    edge_scalars = rng.integers(0, 3, graph.n_edges).astype(np.float64)
    eg = EdgeScalarGraph(graph, edge_scalars)
    vector = build_super_tree(_on("vector", build_edge_tree, eg))
    oracle = build_super_tree(build_edge_tree_naive(eg))
    assert vector.n_nodes == oracle.n_nodes
    assert np.array_equal(np.sort(vector.scalars), np.sort(oracle.scalars))


def test_empty_and_edgeless():
    empty = from_edge_array(np.empty((0, 2), dtype=np.int64), n_vertices=5)
    sg = ScalarGraph(empty, np.arange(5, dtype=np.float64))
    eg = EdgeScalarGraph(empty, np.zeros(0))
    assert np.array_equal(oracle_vertex_tree(sg).parent, np.full(5, -1))
    assert oracle_edge_tree(eg).n_nodes == 0
    for tier in TIERS:
        tree = _on(tier, build_vertex_tree, sg)
        assert np.array_equal(tree.parent, np.full(5, -1))
        assert _on(tier, build_edge_tree, eg).n_nodes == 0
