"""Super scalar trees — the paper's Algorithm 2.

When scalar values repeat, the raw tree from Algorithm 1 can contain
subtrees that do not correspond to any maximal α-connected component
(paper Fig 3).  Algorithm 2 repairs this by merging every node with all
of its equal-valued descendants into a *super node*; the resulting super
tree again satisfies Properties 2–4 (a super node may represent several
items, so Property 1 is relaxed).

The super tree is also the structure the terrain layout consumes, and
the structure reported in Table II (``Nt`` = number of super nodes).
:func:`build_super_tree` runs the walk in C on the native tier
(:func:`repro.accel.native.super_tree`) and in Python otherwise; both
tiers give the same arrays, and both refuse a malformed tree whose
items are not all reached from a root.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Tuple

import numpy as np

from .. import accel
from ..accel import native as _native
from .scalar_tree import ScalarTree, _children_table

__all__ = ["SuperTree", "build_super_tree"]


class SuperTree:
    """Tree of super nodes; each super node groups equal-valued items.

    Attributes
    ----------
    scalars:
        Scalar value per super node.
    parent:
        Parent super node id (−1 for roots); parent scalar is strictly
        smaller.
    members:
        ``members[s]`` — array of original item ids merged into ``s``.
    kind:
        ``"vertex"`` or ``"edge"`` (inherited from the source tree).
    """

    __slots__ = (
        "scalars",
        "parent",
        "members",
        "kind",
        "_children",
        "_roots",
        "_node_of_item",
        "_pre_order",
        "_span",
        "_node_span",
        "_subtree_items",
    )

    def __init__(
        self,
        scalars: np.ndarray,
        parent: np.ndarray,
        members: List[np.ndarray],
        kind: str = "vertex",
    ) -> None:
        self.scalars = np.asarray(scalars, dtype=np.float64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.members = [np.asarray(m, dtype=np.int64) for m in members]
        if kind not in ("vertex", "edge"):
            raise ValueError("kind must be 'vertex' or 'edge'")
        self.kind = kind
        if not (len(self.scalars) == len(self.parent) == len(self.members)):
            raise ValueError("scalars, parent, members must align")
        self._children: Optional[List[List[int]]] = None
        self._roots: Optional[List[int]] = None
        self._node_of_item: Optional[np.ndarray] = None
        self._pre_order: Optional[np.ndarray] = None
        self._span: Optional[np.ndarray] = None
        self._node_span: Optional[np.ndarray] = None
        self._subtree_items: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Shape accessors
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of super nodes (Table II's ``Nt``)."""
        return len(self.scalars)

    @property
    def n_items(self) -> int:
        """Number of original items across all members."""
        return int(sum(len(m) for m in self.members))

    @property
    def roots(self) -> List[int]:
        if self._roots is None:
            self._roots = [int(i) for i in np.flatnonzero(self.parent < 0)]
        return self._roots

    def children(self, node: Optional[int] = None):
        """Children of ``node``, or the whole table when ``node`` is None."""
        if self._children is None:
            self._children = _children_table(self.parent, self.n_nodes)
        if node is None:
            return self._children
        return self._children[node]

    def node_of_item(self, item: Optional[int] = None):
        """Super node containing original item ``item`` (or full map)."""
        if self._node_of_item is None:
            n_items = self.n_items
            mapping = -np.ones(n_items, dtype=np.int64)
            for s, member in enumerate(self.members):
                mapping[member] = s
            self._node_of_item = mapping
        if item is None:
            return self._node_of_item
        return int(self._node_of_item[item])

    # ------------------------------------------------------------------
    # Subtree machinery (Euler-tour spans for O(size) member extraction)
    # ------------------------------------------------------------------
    def _ensure_tour(self) -> None:
        if self._pre_order is not None:
            return
        n = self.n_nodes
        children = self.children()
        pre = np.empty(n, dtype=np.int64)
        span = np.empty((n, 2), dtype=np.int64)
        cursor = 0
        for root in self.roots:
            stack: List[Tuple[int, bool]] = [(root, False)]
            while stack:
                node, done = stack.pop()
                if done:
                    span[node, 1] = cursor
                    continue
                pre[cursor] = node
                span[node, 0] = cursor
                cursor += 1
                stack.append((node, True))
                for child in reversed(children[node]):
                    stack.append((child, False))
        self._pre_order = pre
        self._node_span = span.copy()  # spans over super-node pre-order
        # Items concatenated in pre-order; a subtree's items are one slice.
        counts = np.array([len(self.members[int(s)]) for s in pre])
        offsets = np.zeros(n + 1, dtype=np.int64)
        offsets[1:] = np.cumsum(counts)
        items = np.empty(offsets[-1], dtype=np.int64)
        for i, s in enumerate(pre):
            items[offsets[i]: offsets[i + 1]] = self.members[int(s)]
        self._subtree_items = items
        # Re-index span into item offsets.
        self._span = np.column_stack(
            [offsets[span[:, 0]], offsets[span[:, 1]]]
        )

    def subtree_node_ids(self, node: int) -> np.ndarray:
        """All super node ids in the subtree rooted at ``node`` (pre-order)."""
        self._ensure_tour()
        lo, hi = self._node_span[node]
        return self._pre_order[lo:hi]

    def subtree_size(self, node: int) -> int:
        """Number of original items in the subtree rooted at ``node``."""
        self._ensure_tour()
        lo, hi = self._span[node]
        return int(hi - lo)

    def subtree_items(self, node: int) -> np.ndarray:
        """All original item ids in the subtree rooted at ``node``."""
        self._ensure_tour()
        lo, hi = self._span[node]
        return self._subtree_items[lo:hi]

    def subtree_sizes(self) -> np.ndarray:
        """Vector of :meth:`subtree_size` for every super node."""
        self._ensure_tour()
        return (self._span[:, 1] - self._span[:, 0]).copy()

    def is_ancestor(self, anc: int, desc: int) -> bool:
        """Whether super node ``anc`` is an ancestor of (or is) ``desc``."""
        self._ensure_tour()
        lo_a, hi_a = self._span[anc]
        lo_d, hi_d = self._span[desc]
        return bool(lo_a <= lo_d and hi_d <= hi_a)

    # ------------------------------------------------------------------
    # α-component queries (the tree-side of Properties 2–4)
    # ------------------------------------------------------------------
    def component_roots_at(self, alpha: float) -> List[int]:
        """Super nodes whose subtree is a maximal α-connected component.

        These are the nodes at height >= α whose parent lies strictly
        below α — i.e. the subtrees remaining when the tree is cut by
        the plane ``height = alpha``.
        """
        above = self.scalars >= alpha
        out = []
        for node in np.flatnonzero(above):
            p = self.parent[node]
            if p < 0 or self.scalars[p] < alpha:
                out.append(int(node))
        return out

    def components_at(self, alpha: float) -> List[np.ndarray]:
        """Item sets of all maximal α-connected components."""
        return [
            self.subtree_items(root)
            for root in self.component_roots_at(alpha)
        ]

    def mcc_items(self, item: int) -> np.ndarray:
        """Items of ``MCC(item)`` — the maximal ``scalar(item)``-connected
        component containing ``item`` (paper Definition 2 / Proposition 2:
        the subtree rooted at the super node that contains the item)."""
        return self.subtree_items(self.node_of_item(item))

    def validate(self) -> None:
        """Check super-tree invariants; raise ``ValueError`` on violation.

        A negative parent marks a root; a parent id past the last super
        node, a parent scalar not strictly below its child's, or members
        that do not partition ``0..n_items-1`` are errors.
        """
        kids = np.flatnonzero(self.parent >= 0)
        parents = self.parent[kids]
        past = np.flatnonzero(parents >= self.n_nodes)
        if len(past):
            raise ValueError(
                f"super node {kids[past[0]]} has parent {parents[past[0]]}, "
                f"past the last of {self.n_nodes} super nodes"
            )
        if not np.all(self.scalars[parents] < self.scalars[kids]):
            raise ValueError(
                "parent scalar must be strictly below child scalar"
            )
        items = np.concatenate(self.members or [np.empty(0, np.int64)])
        if len(items) and (items.min() < 0 or items.max() >= len(items)):
            raise ValueError("member ids must lie in 0..n_items-1")
        if np.any(np.bincount(items, minlength=len(items)) != 1):
            raise ValueError("members must partition the items")

    def __repr__(self) -> str:
        return (
            f"SuperTree(kind={self.kind!r}, n_nodes={self.n_nodes}, "
            f"n_items={self.n_items}, n_roots={len(self.roots)})"
        )


def build_super_tree(tree: ScalarTree) -> SuperTree:
    """Algorithm 2: merge equal-valued ancestor/descendant chains.

    Breadth-first from each chain head (a node whose parent is absent or
    strictly lower), absorb all descendants reachable through equal-valued
    children into one super node.  Single pass, O(n).

    The C kernel of :mod:`repro.accel.native` runs it when
    ``accel.resolve(native=True)`` says native (the default on a host
    with a compiler); the Python walk :func:`_chain_bfs` runs it
    otherwise.  Both give the same arrays.  Raises ``ValueError`` when
    some item is reached by no chain from a root, which happens only in
    a malformed tree: a child below its parent, or a cycle.
    """
    if accel.resolve(native=True) == "native":
        scalars, parent, members, node_of = _native.super_tree(
            tree.parent, tree.scalars
        )
    else:
        scalars, parent, members, node_of = _chain_bfs(tree)
    missed = np.flatnonzero(node_of < 0)
    if len(missed):
        raise ValueError(
            f"item {missed[0]} is not reached from a root through "
            "non-decreasing scalars (a child below its parent, or a cycle)"
        )
    return SuperTree(scalars, parent, members, kind=tree.kind)


def _chain_bfs(tree: ScalarTree):
    """Python twin of :func:`repro.accel.native.super_tree`: the super
    nodes' ``(scalars, parent, members)`` and each item's super node,
    -1 where no chain reaches it."""
    n = tree.n_nodes
    scalars = tree.scalars
    children = tree.children()
    parent = tree.parent

    node_of = -np.ones(n, dtype=np.int64)
    super_scalars: List[float] = []
    super_parent: List[int] = []
    members: List[List[int]] = []

    # Chain heads in topological order so a head's parent super node
    # already exists when the head is reached.
    heads = deque()
    for node in tree.iter_topological():
        p = parent[node]
        if p < 0 or scalars[p] < scalars[node]:
            heads.append(int(node))

    for head in heads:
        sid = len(super_scalars)
        super_scalars.append(float(scalars[head]))
        p = parent[head]
        super_parent.append(-1 if p < 0 else int(node_of[p]))
        group: List[int] = []
        queue = deque([head])
        while queue:
            node = queue.popleft()
            node_of[node] = sid
            group.append(node)
            for child in children[node]:
                if scalars[child] == scalars[node]:
                    queue.append(child)
        members.append(group)

    return (
        np.array(super_scalars, dtype=np.float64),
        np.array(super_parent, dtype=np.int64),
        [np.array(g, dtype=np.int64) for g in members],
        node_of,
    )
