"""Edge scalar trees — the paper's Algorithm 3 and the naive baseline.

For an edge-based scalar graph, the tree has one node per *edge*;
subtrees correspond to maximal α-edge connected components (Definition 3).

Two constructions are provided:

* :func:`build_edge_tree` — the paper's optimized Algorithm 3,
  O(E log E): when processing edge ``e_i`` only the ``min_id_edge`` of
  its two endpoints needs checking (Proposition 3), not all neighbours.
* :func:`build_edge_tree_naive` — convert to the line graph and run
  Algorithm 1; O(Σ deg(v)² log E).  Kept as the Table II ``te`` baseline
  and as a cross-validation oracle in tests.
"""

from __future__ import annotations

from ..accel import tree as _accel_tree
from ..graph.dual import line_graph
from .scalar_graph import EdgeScalarGraph, ScalarGraph
from .scalar_tree import ScalarTree, build_vertex_tree

__all__ = ["build_edge_tree", "build_edge_tree_naive"]


def build_edge_tree(edge_graph: EdgeScalarGraph) -> ScalarTree:
    """Algorithm 3: edge scalar tree in O(E log E).

    Edges are processed in decreasing scalar order (ties by edge id).
    For each vertex, ``min_id_edge`` is its incident edge with minimum
    sorted index — i.e. the first-processed one.  By Proposition 3, when
    edge ``e_i = (v1, v2)`` is processed, the subtree roots reachable
    through *any* earlier neighbouring edge equal the subtree roots of
    ``min_id_edge(v1)`` and ``min_id_edge(v2)``, so only those two are
    inspected.

    Returns a :class:`ScalarTree` whose items are dense edge ids (the
    order of :attr:`EdgeScalarGraph.edge_pairs`), built by the same
    merge scan as :func:`~repro.core.scalar_tree.build_vertex_tree`.
    """
    scalars = edge_graph.scalars
    # Decreasing scalar, ties by ascending edge id.
    __, rank = _accel_tree.rank_order(scalars)
    parent = _accel_tree.edge_tree_parents(
        edge_graph.n_vertices, edge_graph.edge_pairs, rank
    )
    return ScalarTree(parent, scalars.copy(), kind="edge")


def build_edge_tree_naive(edge_graph: EdgeScalarGraph) -> ScalarTree:
    """Naive edge scalar tree via the dual (line) graph.

    Builds ``Gd`` — a vertex per edge, adjacency when edges share an
    endpoint — then runs Algorithm 1 on it.  The dual has
    ``Σ_v deg(v)²`` edges, which is what makes this slow on skewed
    degree distributions (the paper reports >300× slower than
    Algorithm 3 on Wikipedia).
    """
    dual, edge_pairs = line_graph(edge_graph.graph)
    # Dual vertex i corresponds to dense edge id i, so scalars align.
    dual_scalar_graph = ScalarGraph(dual, edge_graph.scalars)
    tree = build_vertex_tree(dual_scalar_graph)
    return ScalarTree(tree.parent, tree.scalars, kind="edge")
