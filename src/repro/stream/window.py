"""Sliding-window replay: edits expire ``horizon`` time units after entry.

Temporal-network datasets (interaction logs, co-authorship years) are
usually analysed over a rolling window: an edge observed at time ``t``
counts until ``t + horizon`` and then lapses unless re-observed.
:class:`SlidingWindow` wraps a
:class:`~repro.stream.incremental.StreamingScalarTree` and maintains
exactly that view.

Expiry semantics — per *item* (an edge or a vertex's scalar): the first
windowed edit records the item's baseline (its pre-stream state); while
later edits keep touching the item its clock keeps resetting; when the
*last* edit touching the item expires, the item reverts to its baseline.
This keeps overlapping edits well-defined without replaying history.

Expiry is **deterministic for equal timestamps**: every windowed edit
gets a monotonically increasing sequence number, an item is kept alive
by its highest-sequence touch (not merely its latest timestamp), and a
batch of same-cutoff reverts is emitted in insertion order.  Window
contents are therefore a pure function of the pushed edit sequence.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from .editlog import AddEdge, Batch, Edit, RemoveEdge, SetScalar
from .incremental import StreamingScalarTree

__all__ = ["SlidingWindow"]

_VERTEX = "v"
_EDGE = "e"


class SlidingWindow:
    """Expire edits older than ``horizon`` from a streaming tree.

    Parameters
    ----------
    stream:
        The maintained tree; mutate it only through this window.
    horizon:
        Window length W: an edit pushed at time ``t`` lapses at
        ``t + horizon``.

    Timestamps must be pushed in non-decreasing order.
    """

    def __init__(self, stream: StreamingScalarTree, horizon: float) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.stream = stream
        self.horizon = float(horizon)
        self._now = -float("inf")
        # (time, seq, key) entries in push order; key = (kind, id-tuple).
        # ``seq`` is a per-window edit counter: the insertion-order
        # tie-break that keeps expiry deterministic when many edits
        # share one timestamp (an item stays alive until its
        # highest-sequence touch expires, never just its latest time).
        self._entries: Deque[
            Tuple[float, int, Tuple[str, Tuple[int, ...]]]
        ] = deque()
        self._seq = 0
        self._last_touch: Dict[Tuple[str, Tuple[int, ...]], int] = {}
        # Baseline state captured at the item's first windowed edit:
        # scalar value for vertices, edge-presence bool for edges.
        self._baseline: Dict[Tuple[str, Tuple[int, ...]], object] = {}

    @property
    def now(self) -> float:
        """The latest time pushed or advanced to."""
        return self._now

    def _key(self, edit: Edit) -> Tuple[str, Tuple[int, ...]]:
        if isinstance(edit, SetScalar):
            return (_VERTEX, (edit.vertex,))
        u, v = (edit.u, edit.v) if edit.u < edit.v else (edit.v, edit.u)
        return (_EDGE, (u, v))

    def _expired_batch(self, when: float):
        """Pop lapsed entries; build the batch reverting orphaned items.

        Returns ``(reverts, reverted)`` where ``reverted`` maps each
        reverted key to its restored baseline — a same-push re-touch of
        that item must treat the restored value as its new baseline.
        Reverts are emitted in insertion order of each item's *final*
        touch, so equal-timestamp expiry is reproducible.
        """
        cutoff = when - self.horizon
        reverts: Batch = []
        reverted: Dict[Tuple[str, Tuple[int, ...]], object] = {}
        while self._entries and self._entries[0][0] <= cutoff:
            _t, seq, key = self._entries.popleft()
            if self._last_touch.get(key) != seq:
                continue  # a later edit keeps this item alive
            del self._last_touch[key]
            baseline = self._baseline.pop(key)
            reverted[key] = baseline
            kind, ids = key
            if kind == _VERTEX:
                reverts.append(SetScalar(ids[0], float(baseline)))
            else:
                u, v = ids
                if baseline and not self.stream.delta.has_edge(u, v):
                    reverts.append(AddEdge(u, v))
                elif not baseline and self.stream.delta.has_edge(u, v):
                    reverts.append(RemoveEdge(u, v))
        return reverts, reverted

    def push(self, when: float, edits: Batch):
        """Advance to ``when``, expire lapsed edits, apply ``edits``.

        Returns the updated scalar tree.
        """
        if when < self._now:
            raise ValueError("timestamps must be non-decreasing")
        self._now = when
        batch, reverted = self._expired_batch(when)
        for edit in edits:
            key = self._key(edit)
            if key not in self._baseline:
                kind, ids = key
                if key in reverted:
                    self._baseline[key] = reverted[key]
                elif kind == _VERTEX:
                    self._baseline[key] = float(
                        self.stream.scalars[ids[0]]
                    )
                else:
                    self._baseline[key] = self.stream.delta.has_edge(*ids)
            self._seq += 1
            self._last_touch[key] = self._seq
            self._entries.append((when, self._seq, key))
            batch.append(edit)
        return self.stream.apply(batch)

    def advance(self, when: float):
        """Advance the clock with no new edits (expiry only)."""
        return self.push(when, [])

    @property
    def n_live(self) -> int:
        """Number of items currently held away from their baseline."""
        return len(self._baseline)
