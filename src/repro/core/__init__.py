"""Core contribution: scalar graphs, scalar trees, components, multifield."""

from .components import (
    edge_mcc,
    maximal_alpha_components,
    maximal_alpha_edge_components,
    mcc,
)
from .edge_tree import build_edge_tree, build_edge_tree_naive
from .multifield import (
    edge_global_correlation_index,
    edge_local_correlation_index,
    global_correlation_index,
    khop_local_correlation_index,
    local_correlation_index,
    outlier_score,
)
from .scalar_graph import EdgeScalarGraph, ScalarGraph
from .serialize import (
    load_tree,
    save_tree,
    scalar_tree_from_json,
    scalar_tree_to_json,
    super_tree_from_json,
    super_tree_to_json,
)
from .scalar_tree import ScalarTree, attach_vertex, build_vertex_tree
from .simplify import discretize_quantile, discretize_uniform, simplify_tree
from .super_tree import SuperTree, build_super_tree
from .union_find import NaiveUnionFind, RollbackUnionFind, UnionFind

__all__ = [
    "ScalarGraph",
    "EdgeScalarGraph",
    "ScalarTree",
    "SuperTree",
    "build_vertex_tree",
    "build_edge_tree",
    "build_edge_tree_naive",
    "build_super_tree",
    "simplify_tree",
    "discretize_uniform",
    "discretize_quantile",
    "maximal_alpha_components",
    "maximal_alpha_edge_components",
    "mcc",
    "edge_mcc",
    "local_correlation_index",
    "edge_local_correlation_index",
    "edge_global_correlation_index",
    "save_tree",
    "load_tree",
    "scalar_tree_to_json",
    "scalar_tree_from_json",
    "super_tree_to_json",
    "super_tree_from_json",
    "khop_local_correlation_index",
    "global_correlation_index",
    "outlier_score",
    "UnionFind",
    "NaiveUnionFind",
    "RollbackUnionFind",
    "attach_vertex",
]
