"""Timestamped edge streams → per-window terrain frames.

:class:`Timeline` is the temporal front-end of the pipeline: it
consumes a non-decreasing stream of ``(u, v, ts, w)`` rows (chunked,
as produced by :func:`repro.graph.io.iter_temporal_edges_sorted`),
groups them into frames at ``t_k = origin + horizon + k * stride``,
and drives one :class:`~repro.stream.incremental.StreamingScalarTree`
through a :class:`~repro.stream.window.SlidingWindow` so each frame's
graph is exactly the edges observed in the last ``horizon`` time units
(at frame granularity — edits enter the window at their frame's
``t_end``, so expiry is quantized to frame boundaries; with the
default tumbling stride ``stride == horizon`` this is *exact* window
semantics, frame ``k`` holds precisely the edges with
``t_{k-1} < ts <= t_k``).

Scalars are refreshed per frame — the measure is recomputed on the
window graph.  A tumbling frame reaches the tree as arrays, with no
edit objects: one ``stream.advance`` call takes the frame's CSR, its
field, and the removed and added pairs.  Overlapping frames patch the
changed vertices through ``stream.apply`` *directly* (never through the
window: windowed ``SetScalar`` edits would revert to stale baselines on
expiry and corrupt later windows).

Each emitted :class:`WindowFrame` carries the compacted window graph,
its scalar field, and the vertex/super trees, and is asserted (in
tier-1 tests) to be node-identical to a from-scratch build of the
same window — the incremental path changes cost, never arrays.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..core.scalar_tree import ScalarTree
from ..core.super_tree import SuperTree
from ..engine import registry
from ..graph.builders import empty_graph, from_edge_array
from ..graph.csr import CSRGraph
from ..graph.io import (
    DEFAULT_CHUNK_EDGES,
    iter_temporal_edge_chunks,
    iter_temporal_edges_sorted,
)
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..core.scalar_graph import ScalarGraph
from ..stream.editlog import AddEdge, SetScalar
from ..stream.incremental import StreamingScalarTree
from ..stream.window import SlidingWindow

__all__ = [
    "WindowFrame",
    "Timeline",
    "temporal_log_stats",
    "frames_from_log",
    "frames_from_rows",
]

_M_WINDOWS = obs_metrics.REGISTRY.counter(
    "repro_evolve_windows_total", "Terrain frames emitted by timelines."
)
_M_WINDOW_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_evolve_window_seconds", "Per-window maintenance time."
)


@dataclass
class WindowFrame:
    """One terrain frame: the window ending at ``t_end``.

    ``graph``/``scalars`` are the compacted window snapshot (safe to
    keep; later frames do not mutate them), ``tree`` the maintained
    vertex scalar tree and ``super`` the display (super or simplified)
    tree — what :mod:`repro.evolve.tracker` cuts peaks from and
    :mod:`repro.evolve.diff` rasterizes.
    """

    index: int
    t_end: float
    horizon: float
    graph: CSRGraph
    scalars: np.ndarray
    tree: ScalarTree
    super: SuperTree
    n_edges: int
    n_new_edges: int
    stream_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def t_start(self) -> float:
        """Window start (exclusive): the frame covers ``(t_start, t_end]``.

        Exception: frame 0 also includes rows stamped exactly at the
        origin — an explicit ``origin`` equal to the first timestamp
        keeps those rows rather than silently dropping them.
        """
        return self.t_end - self.horizon

    def describe(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "t_end": self.t_end,
            "t_start": self.t_start,
            "n_edges": self.n_edges,
            "n_new_edges": self.n_new_edges,
            "super_nodes": int(self.super.n_nodes),
            "incremental": int(self.stream_stats.get("incremental", 0)),
            "full_rebuilds": int(self.stream_stats.get("full_rebuilds", 0)),
        }


class Timeline:
    """Stateful window engine over a sorted temporal edge stream.

    Parameters
    ----------
    n_vertices:
        Fixed vertex universe (temporal logs address vertices by id).
    measure:
        Registered vertex measure recomputed per window.
    horizon:
        Window length W.
    stride:
        Frame spacing S; default ``horizon`` (tumbling windows, the
        exact-semantics case).  ``stride < horizon`` gives overlapping
        windows with expiry quantized to frame boundaries.

        Tumbling windows are maintained by *diffing* consecutive
        window edge sets (vectorized symmetric difference of canonical
        pair keys) so per-window tree work is proportional to the
        churned edges, not the window size; overlapping windows go
        through :class:`~repro.stream.window.SlidingWindow` leases.
    origin:
        Time origin; frame ``k`` ends at ``origin + horizon +
        k * stride``.  Default: just below the first timestamp, so the
        first event always lands in frame 0.
    """

    def __init__(
        self,
        n_vertices: int,
        measure: str = "degree",
        horizon: float = 1.0,
        stride: Optional[float] = None,
        origin: Optional[float] = None,
        bins: Optional[int] = None,
        scheme: str = "quantile",
        rebuild_threshold: float = 0.5,
    ) -> None:
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        if stride is not None and stride <= 0:
            raise ValueError("stride must be positive")
        spec = registry.get_measure(measure)
        if spec.kind != "vertex":
            raise ValueError(
                f"timeline needs a vertex measure, {measure!r} is {spec.kind}"
            )
        self.n_vertices = int(n_vertices)
        self.measure = measure
        self.horizon = float(horizon)
        self.stride = float(stride) if stride is not None else float(horizon)
        self.origin = origin
        self.bins = bins
        self.scheme = scheme
        graph = empty_graph(self.n_vertices)
        scalars = registry.compute(measure, graph)
        self.stream = StreamingScalarTree(
            ScalarGraph(graph, scalars), rebuild_threshold=rebuild_threshold
        )
        self.window = SlidingWindow(self.stream, self.horizon)
        self._t_end: Optional[float] = None
        self._index = 0
        self._buffer: List[np.ndarray] = []
        self._last_ts = -math.inf
        # Tumbling windows (stride == horizon) never overlap, so the
        # next window's edge set replaces the current one wholesale —
        # the transition is the vectorized symmetric difference of the
        # two canonical pair sets, and only the churned edges touch the
        # tree.  Overlapping windows go through the SlidingWindow's
        # per-entry lease machinery instead.
        self._tumbling = self.stride == self.horizon
        self._live_keys = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    def _window_keys(self, rows: np.ndarray) -> np.ndarray:
        """Sorted unique canonical pair keys (``u * n + v``, u < v)."""
        uv = rows[:, :2].astype(np.int64)
        u = np.minimum(uv[:, 0], uv[:, 1])
        v = np.maximum(uv[:, 0], uv[:, 1])
        keep = u != v
        return np.unique(u[keep] * self.n_vertices + v[keep])

    def _emit(self) -> WindowFrame:
        with obs_trace.span(
            "evolve.window", index=self._index, measure=self.measure
        ), _M_WINDOW_SECONDS.time():
            rows = (
                np.concatenate(self._buffer)
                if self._buffer
                else np.empty((0, 4), dtype=np.float64)
            )
            self._buffer = []
            if self._tumbling:
                keys = self._window_keys(rows)
                gone = np.setdiff1d(
                    self._live_keys, keys, assume_unique=True
                )
                new = np.setdiff1d(keys, self._live_keys, assume_unique=True)
                n = self.n_vertices
                # The key set IS the window edge set, so the frame
                # graph comes straight from it, the measure is computed
                # on that graph before touching the stream, and the
                # edge diff and the scalar refresh reach the tree as
                # arrays in ONE advance — a single theta-bounded
                # rewind/replay per frame over the frame's own CSR.
                graph = from_edge_array(
                    np.column_stack(np.divmod(keys, n)), n_vertices=n
                )
                values = registry.compute(self.measure, graph)
                if len(gone) or len(new) or (
                    values != self.stream.scalars
                ).any():
                    self.stream.advance(
                        graph,
                        values,
                        np.column_stack(np.divmod(gone, n)),
                        np.column_stack(np.divmod(new, n)),
                    )
                self._live_keys = keys
                n_new_edges = len(new)
            else:
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
        _M_WINDOWS.inc()
        self._index += 1
        self._t_end += self.stride
        return frame

    def frames(
        self, chunks: Iterable[np.ndarray]
    ) -> Iterator[WindowFrame]:
        """Yield one :class:`WindowFrame` per elapsed frame interval.

        ``chunks`` are ``(k, 4)`` row blocks in non-decreasing ``ts``
        order (:func:`repro.graph.io.iter_temporal_edges_sorted`
        provides this for unsorted logs); out-of-order input raises.
        Quiet intervals still emit (empty) frames — expiry-driven
        deaths need them.  A trailing partial window is emitted last.
        An endpoint outside ``0..n_vertices-1`` raises ``ValueError``.
        """
        emitted_any = False
        for chunk in chunks:
            chunk = np.asarray(chunk, dtype=np.float64)
            if chunk.ndim != 2 or chunk.shape[1] < 3:
                raise ValueError("chunks must be (k, >=3) row arrays")
            if len(chunk) == 0:
                continue
            ids = chunk[:, :2]
            lo, hi = ids.min(), ids.max()
            if lo < 0 or hi >= self.n_vertices:
                raise _out_of_range(lo if lo < 0 else hi, self.n_vertices)
            ts_col = chunk[:, 2]
            if ts_col[0] < self._last_ts or np.any(np.diff(ts_col) < 0):
                raise ValueError(
                    "timestamps must be non-decreasing; sort the log "
                    "first (iter_temporal_edges_sorted)"
                )
            self._last_ts = float(ts_col[-1])
            if self._t_end is None:
                start = (
                    self.origin
                    if self.origin is not None
                    else math.nextafter(float(ts_col[0]), -math.inf)
                )
                self._t_end = start + self.horizon
            i = 0
            while i < len(chunk):
                j = int(np.searchsorted(ts_col, self._t_end, side="right"))
                if j > i:
                    self._buffer.append(chunk[i:j])
                    i = j
                if i < len(chunk):
                    yield self._emit()
                    emitted_any = True
        if self._buffer or not emitted_any and self._t_end is not None:
            yield self._emit()

    # Convenience: the current window's edge set, for equivalence
    # checks against from-scratch builds.
    def window_graph(self) -> CSRGraph:
        return self.stream.delta.compact()


def _out_of_range(vertex, n_vertices: int) -> ValueError:
    return ValueError(
        f"vertex id {int(vertex)} outside 0..{n_vertices - 1} "
        f"(n_vertices={n_vertices})"
    )


def temporal_log_stats(
    path, chunk_edges: int = DEFAULT_CHUNK_EDGES
) -> Dict[str, float]:
    """One streaming pass over a temporal log: vertex/edge/time bounds."""
    n_vertices = 0
    n_rows = 0
    t_min, t_max = math.inf, -math.inf
    for chunk in iter_temporal_edge_chunks(path, chunk_edges):
        n_rows += len(chunk)
        n_vertices = max(n_vertices, int(chunk[:, :2].max()) + 1)
        t_min = min(t_min, float(chunk[:, 2].min()))
        t_max = max(t_max, float(chunk[:, 2].max()))
    return {
        "n_vertices": n_vertices,
        "n_rows": n_rows,
        "t_min": t_min,
        "t_max": t_max,
    }


def frames_from_log(
    path,
    measure: str = "degree",
    horizon: float = 1.0,
    stride: Optional[float] = None,
    origin: Optional[float] = None,
    n_vertices: Optional[int] = None,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    scratch_dir=None,
    **timeline_kwargs,
) -> Iterator[WindowFrame]:
    """Frames from an (possibly unsorted) on-disk temporal edge list.

    The log is read once: :func:`~repro.graph.io.iter_temporal_edges_sorted`
    spills it into timestamp-sorted runs, reporting the vertex bound
    (largest endpoint + 1) on the way, and then merges the runs back —
    the full log is never materialized in memory.  That spill happens
    here, at call time, so a malformed log raises before any frame is
    asked for.  When ``n_vertices`` is ``None`` the bound sizes the
    vertex universe; an explicit ``n_vertices`` below it raises
    ``ValueError``.
    """
    spill: Dict[str, int] = {}
    chunks = iter_temporal_edges_sorted(path, chunk_edges, scratch_dir, spill)
    first = next(chunks, None)
    if n_vertices is None:
        n_vertices = spill["n_vertices"]
    elif spill["n_vertices"] > n_vertices:
        raise _out_of_range(spill["n_vertices"] - 1, n_vertices)
    timeline = Timeline(
        n_vertices,
        measure=measure,
        horizon=horizon,
        stride=stride,
        origin=origin,
        **timeline_kwargs,
    )
    return timeline.frames(
        itertools.chain([] if first is None else [first], chunks)
    )


def frames_from_rows(
    rows: np.ndarray,
    n_vertices: int,
    measure: str = "degree",
    horizon: float = 1.0,
    stride: Optional[float] = None,
    origin: Optional[float] = None,
    **timeline_kwargs,
) -> Iterator[WindowFrame]:
    """Frames from an in-memory ``(k, >=3)`` row array (must be sorted
    by timestamp) — e.g. a
    :class:`~repro.graph.generators.DynamicCommunityLog`'s ``rows``."""
    timeline = Timeline(
        n_vertices,
        measure=measure,
        horizon=horizon,
        stride=stride,
        origin=origin,
        **timeline_kwargs,
    )
    return timeline.frames([np.asarray(rows, dtype=np.float64)])
