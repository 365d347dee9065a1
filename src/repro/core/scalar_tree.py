"""Vertex scalar trees — the paper's Algorithm 1.

A scalar tree has one node per vertex (same scalar value) such that the
subtrees obtained by cutting the tree at height α are exactly the maximal
α-connected components of the scalar graph (Properties 1–4, §II-B).

Construction processes vertices in decreasing scalar order and maintains
a union-find over the already-processed ones; when the current vertex
touches a previously processed subtree it becomes the new root of that
subtree.  Worst-case O(E·α(n) + V log V).

The same tree structure is reused for *edge* scalar trees (Algorithm 3,
:mod:`repro.core.edge_tree`): a :class:`ScalarTree` is simply a rooted
forest over item ids (vertex ids or edge ids) with a scalar per item.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from ..accel import tree as _accel_tree
from .scalar_graph import ScalarGraph

__all__ = ["ScalarTree", "build_vertex_tree", "attach_vertex"]


def _children_table(parent: np.ndarray, n: int) -> List[List[int]]:
    """Child-list table of a parent-pointer forest, built by numpy
    grouping: stable-argsort the child ids by parent, then slice each
    parent's contiguous run.  Equivalent to the naive
    ``for i, p in enumerate(parent)`` append loop (within each parent,
    children remain in ascending id order) but ~1.3-1.9x faster as the
    forest grows past ~1e5 nodes — the residual cost is materialising
    one Python list per node, which the API shape requires."""
    kids = np.flatnonzero(parent >= 0)
    if not len(kids):
        return [[] for _ in range(n)]
    order = kids[np.argsort(parent[kids], kind="stable")]
    counts = np.bincount(parent[order], minlength=n)
    offsets = np.concatenate(([0], np.cumsum(counts))).tolist()
    order_list = order.tolist()
    return [
        order_list[offsets[i]: offsets[i + 1]] for i in range(n)
    ]


class ScalarTree:
    """A rooted forest over items ``0..n-1``, each carrying a scalar.

    Every node's scalar is >= its parent's scalar, so cutting the forest
    at height α leaves subtrees that correspond one-to-one with maximal
    α-connected components (after super-node postprocessing when values
    repeat — see :mod:`repro.core.super_tree`).

    Attributes
    ----------
    parent:
        ``parent[i]`` is the tree parent of item ``i`` (−1 for roots).
    scalars:
        Scalar value per item.
    kind:
        ``"vertex"`` or ``"edge"`` — what the items are.
    """

    __slots__ = ("parent", "scalars", "kind", "_children", "_roots")

    def __init__(
        self, parent: np.ndarray, scalars: np.ndarray, kind: str = "vertex"
    ) -> None:
        self.parent = np.asarray(parent, dtype=np.int64)
        self.scalars = np.asarray(scalars, dtype=np.float64)
        if len(self.parent) != len(self.scalars):
            raise ValueError("parent and scalars must have equal length")
        if kind not in ("vertex", "edge"):
            raise ValueError("kind must be 'vertex' or 'edge'")
        self.kind = kind
        self._children: Optional[List[List[int]]] = None
        self._roots: Optional[List[int]] = None

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of tree nodes (= number of items)."""
        return len(self.parent)

    @property
    def roots(self) -> List[int]:
        """All forest roots (one per connected component of the graph)."""
        if self._roots is None:
            self._roots = [int(i) for i in np.flatnonzero(self.parent < 0)]
        return self._roots

    def children(self, node: Optional[int] = None):
        """Children of ``node``, or the full child-list table if ``None``.

        The table is grouped vectorised (stable argsort over the parent
        column + offset slicing) rather than by a Python append loop;
        children stay in ascending id order within each parent.
        """
        if self._children is None:
            self._children = _children_table(self.parent, self.n_nodes)
        if node is None:
            return self._children
        return self._children[node]

    def subtree_nodes(self, node: int) -> np.ndarray:
        """All items in the subtree rooted at ``node`` (pre-order)."""
        out = []
        stack = [node]
        children = self.children()
        while stack:
            cur = stack.pop()
            out.append(cur)
            stack.extend(children[cur])
        return np.array(out, dtype=np.int64)

    def depth(self, node: int) -> int:
        """Number of ancestors of ``node``."""
        d = 0
        while self.parent[node] >= 0:
            node = int(self.parent[node])
            d += 1
        return d

    def iter_topological(self) -> Iterator[int]:
        """Yield nodes parents-first (roots, then their children, ...)."""
        children = self.children()
        stack = list(self.roots)
        while stack:
            cur = stack.pop()
            yield cur
            stack.extend(children[cur])

    def validate(self) -> None:
        """Check structural invariants; raise ``ValueError`` on violation.

        Invariants: acyclic with a parent chain ending at a root, and
        every child's scalar >= its parent's scalar.  Pointer doubling
        walks every chain to its root in ``n.bit_length()`` rounds.
        """
        n = self.n_nodes
        kids = np.flatnonzero(self.parent >= 0)
        if len(kids) and self.parent[kids].max() >= n:
            raise ValueError("parent pointers contain a cycle or orphan")
        up = np.where(self.parent < 0, np.arange(n), self.parent)
        for __ in range(n.bit_length()):
            up = up[up]
        if np.any(self.parent[up] >= 0):
            raise ValueError("parent pointers contain a cycle or orphan")
        if np.any(self.scalars[kids] < self.scalars[self.parent[kids]]):
            raise ValueError("child scalar below parent scalar")

    def spliced(self, items, parents, scalars=None) -> "ScalarTree":
        """New tree with ``parent[items]`` replaced by ``parents``.

        The splice hook for incremental maintenance
        (:mod:`repro.stream.incremental`): after a localized update has
        re-derived parent pointers for a dirty region, the clean
        majority of the tree is reused by copying and patching rather
        than re-running Algorithm 1.  ``scalars``, when given, replaces
        the whole scalar field (scalar edits change values outside the
        spliced parent set).  Caches (children table, roots) are not
        carried over.
        """
        new_parent = self.parent.copy()
        if len(np.asarray(items, dtype=np.int64)):
            new_parent[np.asarray(items, dtype=np.int64)] = np.asarray(
                parents, dtype=np.int64
            )
        new_scalars = self.scalars if scalars is None else scalars
        return ScalarTree(
            new_parent, np.array(new_scalars, dtype=np.float64), kind=self.kind
        )

    def __repr__(self) -> str:
        return (
            f"ScalarTree(kind={self.kind!r}, n_nodes={self.n_nodes}, "
            f"n_roots={len(self.roots)})"
        )


def attach_vertex(v, neighbors, rank, uf, parent, tree_root, journal=None):
    """One step of Algorithm 1: fold vertex ``v`` into the partial forest.

    Scans ``neighbors`` of ``v``; every already-processed neighbour
    (``rank[w] < rank[v]``) whose subtree is disjoint from ``v``'s makes
    ``v`` the new root of the merged subtree.  ``rank``, ``parent`` and
    ``tree_root`` are plain lists mutated in place; ``uf`` is any of the
    union-find variants in :mod:`repro.core.union_find`.

    When ``journal`` is given, each merge appends
    ``(child, merged_root, previous_tree_root)`` so callers pairing it
    with a :class:`~repro.core.union_find.RollbackUnionFind` can undo the
    step exactly (see :mod:`repro.stream.incremental`).
    """
    rank_v = rank[v]
    for w in neighbors:
        if rank[w] < rank_v:
            root_v = uf.find(v)
            root_w = uf.find(w)
            if root_v != root_w:
                parent[tree_root[root_w]] = v
                merged = uf.union(root_v, root_w)
                if journal is not None:
                    journal.append(
                        (tree_root[root_w], merged, tree_root[merged])
                    )
                tree_root[merged] = v


def build_vertex_tree(scalar_graph: ScalarGraph) -> ScalarTree:
    """Algorithm 1: construct the vertex scalar tree of a scalar graph.

    Vertices are processed in decreasing scalar order (ties broken by
    vertex id, ascending, via a stable sort); each time the current
    vertex meets an already-processed subtree it is attached as that
    subtree's new root.  Disconnected graphs yield a forest.

    The merges run as the edge-ordered merge scan of
    :mod:`repro.accel.tree` (through the compiled C kernel of
    :mod:`repro.accel.native` on the ``native`` tier), which gives the
    parent array the per-vertex :func:`attach_vertex` replay gives.

    When scalar values repeat, apply
    :func:`repro.core.super_tree.build_super_tree` to restore the
    subtree ↔ component correspondence (paper's Algorithm 2).
    """
    graph = scalar_graph.graph
    scalars = scalar_graph.scalars
    # Decreasing scalar, ties by ascending vertex id.
    __, rank = _accel_tree.rank_order(scalars)
    parent = _accel_tree.vertex_tree_parents(
        graph.n_vertices, graph.edge_array(), rank
    )
    return ScalarTree(parent, scalars.copy(), kind="vertex")
