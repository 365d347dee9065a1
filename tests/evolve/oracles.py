"""Edit-object oracle for overlapping windows.

:class:`EditObjectTimeline` is :class:`repro.evolve.Timeline` with the
window step it had before every window was built from scratch: one
:class:`~repro.stream.incremental.StreamingScalarTree` carried across
frames, a :class:`~repro.stream.window.SlidingWindow` that expires each
edge ``horizon`` after its last touch, one ``AddEdge`` per distinct
pair of the frame, and the measure refreshed on the compacted window
graph through ``SetScalar`` edits applied to the stream directly.  The
body of :meth:`EditObjectTimeline._emit` is that branch unchanged;
frame slicing (``frames``) is the timeline's own.

It is the oracle for strides other than the horizon: the timeline must
emit the same graph, scalars, trees and edge counts in every frame.
With a stride equal to the horizon the timeline takes its tumbling
branch, whose ``n_new_edges`` counts edges new to the window rather
than the frame's distinct pairs, so that case is checked against
scratch builds instead (``test_window_equivalence.py``).

``tests/accel`` holds another ``oracles`` module, so tests load this
one by path rather than by name.
"""

from typing import Dict, Tuple

import numpy as np

from repro.core.scalar_graph import ScalarGraph
from repro.engine import registry
from repro.evolve.timeline import Timeline, WindowFrame
from repro.graph.builders import empty_graph
from repro.stream.editlog import AddEdge, SetScalar
from repro.stream.incremental import StreamingScalarTree
from repro.stream.window import SlidingWindow


class EditObjectTimeline(Timeline):
    """A :class:`~repro.evolve.Timeline` whose frames come from edit
    objects applied to one maintained tree."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        graph = empty_graph(self.n_vertices)
        scalars = registry.compute(self.measure, graph)
        self.stream = StreamingScalarTree(ScalarGraph(graph, scalars))
        self.window = SlidingWindow(self.stream, self.horizon)

    def _emit(self) -> WindowFrame:
        rows = (
            np.concatenate(self._buffer)
            if self._buffer
            else np.empty((0, 4), dtype=np.float64)
        )
        self._buffer = []
        # One AddEdge per distinct pair: duplicates within a
        # frame are a single window touch anyway, and
        # re-touching an edge already live is a no-op on the
        # tree (theta stays -inf for it), so the incremental
        # cost tracks actual churn.
        seen: Dict[Tuple[int, int], None] = {}
        for u, v in rows[:, :2].astype(np.int64):
            if u == v:
                continue
            pair = (int(u), int(v)) if u < v else (int(v), int(u))
            seen.setdefault(pair, None)
        edits = [AddEdge(u, v) for u, v in seen]
        self.window.push(self._t_end, edits)
        n_new_edges = len(edits)

        graph = self.stream.delta.compact()
        values = registry.compute(self.measure, graph)
        changed = np.flatnonzero(values != self.stream.scalars)
        if len(changed):
            self.stream.apply(
                [SetScalar(int(v), float(values[v])) for v in changed]
            )
        frame = WindowFrame(
            index=self._index,
            t_end=self._t_end,
            horizon=self.horizon,
            graph=graph,
            scalars=self.stream.scalars.copy(),
            tree=self.stream.tree,
            super=self.stream.display_tree(self.bins, self.scheme),
            n_edges=int(graph.n_edges),
            n_new_edges=n_new_edges,
            stream_stats=dict(self.stream.stats),
        )
        self._index += 1
        self._t_end += self.stride
        return frame


def oracle_frames(rows, n_vertices, **timeline_kwargs):
    """Frames of an in-memory, timestamp-sorted row array, as
    :func:`repro.evolve.frames_from_rows` yields them, from the
    edit-object timeline."""
    timeline = EditObjectTimeline(n_vertices, **timeline_kwargs)
    return timeline.frames([np.asarray(rows, dtype=np.float64)])
