"""Incremental scalar-tree maintenance over streaming edits.

Algorithm 1 processes vertices in decreasing scalar order, so an edit
batch can only change the tree at and below its *impact level* θ:

* ``SetScalar(v, x)`` matters at levels ≤ max(old value, new value);
* ``AddEdge``/``RemoveEdge`` ``(u, v)`` matters at levels
  ≤ max(min of endpoint scalars before, min after) — the edge only
  connects once *both* endpoints are in the α-sublevel graph.

Every vertex processed strictly above θ sees exactly the neighbourhood,
scalars and union-find state it saw before the batch, so that prefix of
the construction is byte-identical.  :class:`StreamingScalarTree`
therefore records the build as a journal with checkpoints at scalar-level
boundaries (a :class:`~repro.core.union_find.RollbackUnionFind` snapshot
plus the journal length), and on each batch:

1. applies the batch's typed edits to a
   :class:`~repro.stream.delta.DeltaGraph` overlay one at a time and
   computes θ (:func:`impact_level`);
2. rewinds to the deepest checkpoint still strictly above θ;
3. re-sorts and replays only the suffix (the dirty maximal
   α-components' worth of vertices at levels ≤ θ), via the same
   :func:`~repro.core.scalar_tree.attach_vertex` step the full build
   uses;
4. splices the re-derived parent pointers into the previous tree
   (:meth:`~repro.core.scalar_tree.ScalarTree.spliced`) and drops the
   cached super tree, which the next call of
   :meth:`~StreamingScalarTree.super_tree` rebuilds in one pass of
   :func:`~repro.core.super_tree.build_super_tree`.

When the suffix exceeds ``rebuild_threshold`` of the vertices the whole
tree is rebuilt instead — replay would cost as much as a build.

The maintained tree is array-identical to ``build_vertex_tree`` on the
compacted snapshot (the equivalence property test in
``tests/stream/test_equivalence.py`` checks exactly this), because the
prefix order is preserved and the suffix is re-sorted with the same
(-scalar, vertex id) key.

Its callers hold only a delta: ``repro stream``,
:class:`~repro.engine.pipeline.StreamingPipeline` and serve's SSE
stream sessions.  :mod:`repro.evolve` timelines hold each window's
whole edge set and build every window from scratch instead, which
costs less there than a rewind and replay.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import accel
from ..accel import native as _accel_native
from ..core.scalar_graph import ScalarGraph
from ..core.scalar_tree import ScalarTree, attach_vertex
from ..core.simplify import simplify_tree
from ..core.super_tree import SuperTree, build_super_tree
from ..core.union_find import RollbackUnionFind
from .delta import DeltaGraph
from .editlog import AddEdge, Batch, RemoveEdge, SetScalar

__all__ = ["StreamingScalarTree", "impact_level"]

_INF = float("inf")


def impact_level(
    scalars: np.ndarray,
    vertices: np.ndarray,
    before: np.ndarray,
    edges: np.ndarray,
) -> float:
    """A batch's impact level θ: the highest scalar level at which it
    can change the tree (−inf when it changed nothing).

    ``scalars`` is the post-batch field, ``vertices`` the vertices whose
    scalar the batch changed and ``before`` their pre-batch values;
    ``edges`` is a ``(k, 2)`` array of the pairs it added or removed.

    An edge's pre-batch term, the min of its endpoints' old scalars,
    needs no pass of its own: with no changed endpoint it equals the
    post-batch min, and otherwise it is at most that endpoint's old
    value, which the scalar term already counts.
    """
    theta = -_INF
    if len(vertices):
        theta = max(float(before.max()), float(scalars[vertices].max()))
    if len(edges):
        after = np.minimum(scalars[edges[:, 0]], scalars[edges[:, 1]])
        theta = max(theta, float(after.max()))
    return theta


class StreamingScalarTree:
    """Maintains a vertex scalar tree under streaming graph/field edits.

    Parameters
    ----------
    field:
        The initial snapshot (graph + per-vertex scalars).
    rebuild_threshold:
        Full-rebuild fallback: when a batch dirties more than this
        fraction of the vertices, replaying the suffix is no cheaper
        than rebuilding, so rebuild.

    Attributes
    ----------
    delta:
        The mutable :class:`DeltaGraph` holding the current graph state.
    stats:
        Counters — ``batches``, ``incremental``, ``full_rebuilds``,
        ``last_suffix`` (vertices replayed by the latest batch) and
        ``replayed_vertices`` (cumulative).
    """

    def __init__(
        self, field: ScalarGraph, rebuild_threshold: float = 0.5
    ) -> None:
        if not 0.0 <= rebuild_threshold <= 1.0:
            raise ValueError("rebuild_threshold must be in [0, 1]")
        self.delta = DeltaGraph(field.graph, scalars=field.scalars)
        self.rebuild_threshold = rebuild_threshold
        self.stats: Dict[str, int] = {
            "batches": 0,
            "incremental": 0,
            "full_rebuilds": 0,
            "last_suffix": 0,
            "replayed_vertices": 0,
        }
        self._super: Optional[SuperTree] = None
        self._rebuild()

    # ------------------------------------------------------------------
    # Current state
    # ------------------------------------------------------------------
    @property
    def tree(self) -> ScalarTree:
        """The maintained vertex scalar tree for the current snapshot."""
        return self._tree

    @property
    def scalars(self) -> np.ndarray:
        """Current scalar field (do not mutate; edit via batches)."""
        return self.delta.scalars

    @property
    def n_vertices(self) -> int:
        return self.delta.n_vertices

    def snapshot(self) -> ScalarGraph:
        """The current state compacted into an immutable scalar graph."""
        return ScalarGraph(self.delta.compact(), self.delta.scalars.copy())

    def super_tree(self) -> SuperTree:
        """Super tree of the current snapshot (built lazily, then
        cached until the next batch changes the tree)."""
        if self._super is None:
            self._super = build_super_tree(self._tree)
        return self._super

    def display_tree(
        self, bins: Optional[int] = None, scheme: str = "quantile"
    ) -> SuperTree:
        """The presentation tree of the current snapshot: simplified to
        ``bins`` scalar levels when given, else the exact super tree.

        This is the streaming side of the pipeline's display stage
        (:class:`repro.engine.pipeline.StreamingPipeline`), matching
        what a static build would produce on the compacted snapshot.
        """
        if bins:
            return simplify_tree(self.tree, bins, scheme=scheme)
        return self.super_tree()

    # ------------------------------------------------------------------
    # Full (recorded) build
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        n = self.delta.n_vertices
        scalars = self.delta.scalars
        order = np.lexsort((np.arange(n), -scalars))
        self._order: List[int] = order.tolist()
        self._pos: List[int] = [0] * n
        for i, v in enumerate(self._order):
            self._pos[v] = i
        if (
            accel.resolve(native=True) != "native"
            or not self._rebuild_native(order, scalars)
        ):
            self._uf = RollbackUnionFind(n)
            self._parent: List[int] = [-1] * n
            self._tree_root: List[int] = list(range(n))
            self._journal: List[Tuple[int, int, int]] = []
            # (n_processed, journal_len, uf_token, boundary scalar)
            self._checkpoints: List[Tuple[int, int, int, float]] = [
                (0, 0, 0, _INF)
            ]
            self._replay(0)
        self._tree = ScalarTree(
            np.array(self._parent, dtype=np.int64), scalars.copy()
        )
        self._super = None

    def _rebuild_native(self, order: np.ndarray, scalars) -> bool:
        """Full journalled build through the compiled replay kernel.

        Produces the same rollback-capable state the Python replay
        maintains — parent/tree-root lists, the union-find with its
        undo history, the journal, and per-level checkpoints — from one
        C pass over the compacted CSR adjacency.  The union-find's
        internal forest may differ from the Python replay's when
        adjacency enumeration order differs, but the maintained
        invariant (``tree_root[find(x)]`` is x's current subtree root)
        and the resulting tree are identical, and the journal/history
        are self-consistent for later rewinds.  Returns False when the
        native tier is unavailable (caller falls back to Python).
        """
        n = self.delta.n_vertices
        graph = self.delta.compact()
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n, dtype=np.int64)
        svals = np.asarray(scalars, dtype=np.float64)[order]
        # Checkpoint before every strict scalar decrease — exactly the
        # positions the Python replay snapshots at.
        ckpt_pos = (
            np.flatnonzero(svals[1:] < svals[:-1]) + 1
            if n > 1 else np.empty(0, dtype=np.int64)
        )
        state = _accel_native.replay_scan(
            n, graph.indptr, graph.indices, order, pos, ckpt_pos
        )
        if state is None:
            return False
        uf = RollbackUnionFind(n)
        uf.parent = state["uf_parent"].tolist()
        uf.size = state["uf_size"].tolist()
        uf.n_sets = n - state["n_unions"]
        uf._history = state["history"].tolist()
        self._uf = uf
        self._parent = state["parent"].tolist()
        self._tree_root = state["tree_root"].tolist()
        self._journal = [
            tuple(entry) for entry in state["journal"].tolist()
        ]
        # Journal length == union-find history length at every point
        # (each journal append coincides with exactly one union), so
        # one counter serves as both the journal offset and the
        # rollback token.
        self._checkpoints = [(0, 0, 0, _INF)] + [
            (int(i), int(j), int(j), float(b))
            for i, j, b in zip(
                ckpt_pos.tolist(),
                state["ckpt_jlen"].tolist(),
                svals[ckpt_pos - 1].tolist(),
            )
        ]
        return True

    def _replay(self, start: int) -> None:
        """Run Algorithm 1 over ``order[start:]``, journalled, with
        checkpoints at every strict scalar decrease."""
        order = self._order
        scalars = self.delta.scalars
        pos = self._pos
        uf = self._uf
        parent = self._parent
        tree_root = self._tree_root
        journal = self._journal
        neighbors = self.delta.neighbors_list
        prev = scalars[order[start - 1]] if start > 0 else _INF
        for i in range(start, len(order)):
            v = order[i]
            sv = scalars[v]
            if i > start and sv < prev:
                self._checkpoints.append(
                    (i, len(journal), uf.snapshot(), float(prev))
                )
            prev = sv
            attach_vertex(
                v, neighbors(v), pos, uf, parent, tree_root, journal
            )

    # ------------------------------------------------------------------
    # Edit application
    # ------------------------------------------------------------------
    def _validate_edits(self, edits: Sequence) -> None:
        """Reject a batch wholesale before any of it mutates the delta,
        so ``apply`` is atomic: either every edit lands or none do."""
        n = self.delta.n_vertices
        for edit in edits:
            if isinstance(edit, SetScalar):
                if not 0 <= edit.vertex < n:
                    raise IndexError(
                        f"vertex {edit.vertex} outside 0..{n - 1}"
                    )
                if not np.isfinite(edit.value):
                    raise ValueError("scalar values must be finite")
            elif isinstance(edit, (AddEdge, RemoveEdge)):
                for x in (edit.u, edit.v):
                    if not 0 <= x < n:
                        raise IndexError(f"vertex {x} outside 0..{n - 1}")
                if edit.u == edit.v:
                    raise ValueError("self-loops are not allowed")
            else:
                raise TypeError(f"not an edit: {edit!r}")

    def _apply_edits(
        self, edits: Sequence
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply ``edits`` to the delta's overlay; return the vertices
        whose scalar changed, their pre-batch values, and the ``(k, 2)``
        pairs that were actually added or removed — the arguments of
        :func:`impact_level`."""
        before: Dict[int, float] = {}
        touched_edges: List[Tuple[int, int]] = []
        for edit in edits:
            if isinstance(edit, SetScalar):
                prev = self.delta.set_scalar(edit.vertex, edit.value)
                if edit.vertex not in before:
                    if prev == float(edit.value):
                        continue
                    before[edit.vertex] = prev
            elif isinstance(edit, AddEdge):
                if self.delta.add_edge(edit.u, edit.v):
                    touched_edges.append((edit.u, edit.v))
            elif isinstance(edit, RemoveEdge):
                if self.delta.remove_edge(edit.u, edit.v):
                    touched_edges.append((edit.u, edit.v))
            else:
                raise TypeError(f"not an edit: {edit!r}")
        return (
            np.fromiter(before, dtype=np.int64, count=len(before)),
            np.fromiter(before.values(), dtype=np.float64, count=len(before)),
            np.array(touched_edges, dtype=np.int64).reshape(-1, 2),
        )

    def apply(self, edits: Batch) -> ScalarTree:
        """Apply one transaction and return the updated tree.

        Work is proportional to the vertices at scalar levels ≤ θ (the
        batch's impact level) plus O(n) array splicing — not to the
        whole edge set, unless the dirtiness threshold forces a rebuild.

        The batch is atomic: it is validated up front, and an invalid
        edit anywhere in it raises before anything is applied.
        """
        self._validate_edits(edits)
        self.stats["batches"] += 1
        theta = impact_level(self.delta.scalars, *self._apply_edits(edits))
        if theta == -_INF:
            self.stats["last_suffix"] = 0
            return self._tree

        n = self.delta.n_vertices
        checkpoints = self._checkpoints
        idx = len(checkpoints) - 1
        while checkpoints[idx][3] <= theta:
            idx -= 1
        np_, jlen, token, _boundary = checkpoints[idx]
        suffix = n - np_

        self.stats["last_suffix"] = suffix
        if suffix > self.rebuild_threshold * n:
            self.stats["full_rebuilds"] += 1
            self._rebuild()
            return self._tree
        self.stats["incremental"] += 1
        self.stats["replayed_vertices"] += suffix

        # Rewind: undo journalled attachments and union-find merges.
        del checkpoints[idx + 1:]
        journal_tail = self._journal[jlen:]
        changed = [child for child, _, _ in journal_tail]
        for child, merged, prev_root in reversed(journal_tail):
            self._parent[child] = -1
            self._tree_root[merged] = prev_root
        del self._journal[jlen:]
        self._uf.rollback(token)

        # Re-sort the suffix under the new scalars; the prefix order is
        # untouched, and every suffix scalar is strictly below the
        # checkpoint boundary, so prefix + suffix is a global sort.
        scalars = self.delta.scalars
        arr = np.array(self._order[np_:], dtype=np.int64)
        arr = arr[np.lexsort((arr, -scalars[arr]))]
        new_suffix = arr.tolist()
        self._order[np_:] = new_suffix
        for i, v in enumerate(new_suffix):
            self._pos[v] = np_ + i

        self._replay(np_)

        changed.extend(child for child, _, _ in self._journal[jlen:])
        self._tree = self._tree.spliced(
            changed,
            [self._parent[c] for c in changed],
            scalars=scalars,
        )
        self._super = None
        return self._tree
