"""Mutable overlay on an immutable :class:`~repro.graph.csr.CSRGraph`.

The CSR substrate is deliberately immutable — every algorithm in
:mod:`repro.core` assumes frozen adjacency.  Streaming workloads instead
mutate a :class:`DeltaGraph`: a thin overlay holding added/removed edges
and scalar-value updates on top of a base snapshot.  Neighbour queries
see the merged view; :meth:`DeltaGraph.compact` folds the overlay back
into a fresh immutable CSR snapshot when the delta grows large or a
non-streaming consumer needs one.

The vertex set is fixed at construction (streams over a known universe;
grow the universe by compacting into a larger base graph).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..graph.builders import from_edge_array
from ..graph.csr import CSRGraph

__all__ = ["DeltaGraph"]


def _canonical(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


class DeltaGraph:
    """A :class:`CSRGraph` plus a mutable edge/scalar overlay.

    Parameters
    ----------
    base:
        The immutable snapshot to overlay.
    scalars:
        Optional per-vertex scalar field carried along with the graph
        (updated via :meth:`set_scalar`); copied, never aliased.
    """

    def __init__(self, base: CSRGraph, scalars=None) -> None:
        self.base = base
        self._added: Dict[int, Set[int]] = {}
        self._removed: Dict[int, Set[int]] = {}
        self._added_pairs: Set[Tuple[int, int]] = set()
        self._removed_pairs: Set[Tuple[int, int]] = set()
        self._nbr_cache: Dict[int, List[int]] = {}
        self._n_edges = base.n_edges
        if scalars is None:
            self._scalars: Optional[np.ndarray] = None
        else:
            arr = np.array(scalars, dtype=np.float64)
            if arr.shape != (base.n_vertices,):
                raise ValueError("scalars must have one entry per vertex")
            self._scalars = arr

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return self.base.n_vertices

    @property
    def n_edges(self) -> int:
        """Edge count of the merged view (maintained incrementally)."""
        return self._n_edges

    @property
    def n_pending_edits(self) -> int:
        """Overlay size: added plus removed edges not yet compacted."""
        return len(self._added_pairs) + len(self._removed_pairs)

    @property
    def scalars(self) -> Optional[np.ndarray]:
        """The current scalar field (mutate via :meth:`set_scalar`)."""
        return self._scalars

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n_vertices:
            raise IndexError(
                f"vertex {v} outside 0..{self.n_vertices - 1}"
            )

    def add_edge(self, u: int, v: int) -> bool:
        """Insert the undirected edge ``(u, v)``; False if already present."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError("self-loops are not allowed")
        if self.has_edge(u, v):
            return False
        key = _canonical(u, v)
        if key in self._removed_pairs:
            self._removed_pairs.discard(key)
            self._removed.get(u, set()).discard(v)
            self._removed.get(v, set()).discard(u)
        else:
            self._added_pairs.add(key)
            self._added.setdefault(u, set()).add(v)
            self._added.setdefault(v, set()).add(u)
        self._nbr_cache.pop(u, None)
        self._nbr_cache.pop(v, None)
        self._n_edges += 1
        return True

    def remove_edge(self, u: int, v: int) -> bool:
        """Delete the undirected edge ``(u, v)``; False if absent."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v or not self.has_edge(u, v):
            return False
        key = _canonical(u, v)
        if key in self._added_pairs:
            self._added_pairs.discard(key)
            self._added.get(u, set()).discard(v)
            self._added.get(v, set()).discard(u)
        else:
            self._removed_pairs.add(key)
            self._removed.setdefault(u, set()).add(v)
            self._removed.setdefault(v, set()).add(u)
        self._nbr_cache.pop(u, None)
        self._nbr_cache.pop(v, None)
        self._n_edges -= 1
        return True

    def set_scalar(self, v: int, value: float) -> float:
        """Update vertex ``v``'s scalar; returns the previous value."""
        if self._scalars is None:
            raise ValueError("this DeltaGraph carries no scalar field")
        self._check_vertex(v)
        value = float(value)
        if not np.isfinite(value):
            raise ValueError("scalar values must be finite")
        prev = float(self._scalars[v])
        self._scalars[v] = value
        return prev

    # ------------------------------------------------------------------
    # Merged-view queries
    # ------------------------------------------------------------------
    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``(u, v)`` exists in the merged view."""
        key = _canonical(u, v)
        if key in self._added_pairs:
            return True
        if key in self._removed_pairs:
            return False
        return self.base.has_edge(u, v)

    def neighbors_list(self, v: int) -> List[int]:
        """Sorted neighbour list of ``v`` in the merged view (cached)."""
        cached = self._nbr_cache.get(v)
        if cached is None:
            base = self.base.neighbors(v)
            add = self._added.get(v)
            rem = self._removed.get(v)
            if not add and not rem:
                cached = base.tolist()
            else:
                merged = set(base.tolist())
                if rem:
                    merged -= rem
                if add:
                    merged |= add
                cached = sorted(merged)
            self._nbr_cache[v] = cached
        return cached

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbours of ``v`` as an int64 array."""
        return np.array(self.neighbors_list(v), dtype=np.int64)

    def degree(self, v: int) -> int:
        return len(self.neighbors_list(v))

    def edge_array(self) -> np.ndarray:
        """All merged-view edges once, ``(m, 2)`` with ``u < v``."""
        pairs = self.base.edge_array()
        if self._removed_pairs:
            # One membership test over canonical ``u * n + v`` keys.
            n = self.n_vertices
            removed = np.array(list(self._removed_pairs), dtype=np.int64)
            keep = ~np.isin(
                pairs[:, 0] * n + pairs[:, 1], removed[:, 0] * n + removed[:, 1]
            )
            pairs = pairs[keep]
        if self._added_pairs:
            extra = np.array(sorted(self._added_pairs), dtype=np.int64)
            pairs = np.vstack([pairs, extra.reshape(-1, 2)])
        return pairs

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> CSRGraph:
        """Fold the overlay into a fresh immutable :class:`CSRGraph`.

        Returns ``base`` itself when no edge edits are pending.  Scalar
        updates live in :attr:`scalars` and are unaffected.
        """
        if not self._added_pairs and not self._removed_pairs:
            return self.base
        return from_edge_array(
            self.edge_array(),
            n_vertices=self.n_vertices,
            labels=self.base.labels,
        )

    def rebase(self) -> CSRGraph:
        """Compact, then make the result the new base with an empty overlay."""
        snapshot = self.compact()
        self.base = snapshot
        self._added.clear()
        self._removed.clear()
        self._added_pairs.clear()
        self._removed_pairs.clear()
        self._nbr_cache.clear()
        return snapshot

    def __repr__(self) -> str:
        return (
            f"DeltaGraph(n_vertices={self.n_vertices}, "
            f"n_edges={self.n_edges}, pending={self.n_pending_edits})"
        )
