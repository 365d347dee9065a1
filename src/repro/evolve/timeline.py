"""Timestamped edge streams → per-window terrain frames.

:class:`Timeline` is the temporal front-end of the pipeline: it
consumes a non-decreasing stream of ``(u, v, ts, w)`` rows (chunked,
as produced by :func:`repro.graph.io.iter_temporal_edges_sorted`),
groups them into frames at ``t_k = origin + horizon + k * stride``,
and builds each frame from scratch: the window's edge set as canonical
pair keys, its CSR (``from_edge_array``), the measure on that graph,
Algorithm 1 (``build_vertex_tree``) and the display tree.

With the default tumbling stride (``stride == horizon``) a frame holds
exactly the edges observed in it, frame ``k`` the edges with
``t_{k-1} < ts <= t_k``.  With any other stride an edge stays in the
window until ``horizon`` after the frame that last touched it, so
expiry is quantized to frame boundaries: a stride below the horizon
gives overlapping windows, one above it leaves gaps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

import numpy as np

from ..core.scalar_graph import ScalarGraph
from ..core.scalar_tree import ScalarTree, build_vertex_tree
from ..core.simplify import simplify_tree
from ..core.super_tree import SuperTree, build_super_tree
from ..engine import registry
from ..graph.builders import from_edge_array
from ..graph.csr import CSRGraph
from ..graph.io import (
    DEFAULT_CHUNK_EDGES,
    iter_temporal_edge_chunks,
    iter_temporal_edges_sorted,
)
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace

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
    "repro_evolve_window_seconds", "Per-window build time."
)


@dataclass
class WindowFrame:
    """One terrain frame: the window ending at ``t_end``.

    ``graph``/``scalars`` are the window snapshot (safe to keep; later
    frames do not mutate them), ``tree`` its vertex scalar tree and
    ``super`` the display (super or simplified) tree — what
    :mod:`repro.evolve.tracker` cuts peaks from and
    :mod:`repro.evolve.diff` rasterizes.  ``n_new_edges`` counts, for
    tumbling windows, the edges not in the previous window and, for
    any other stride, the distinct edges observed in this frame.

    ``stream_stats`` holds the counters that
    :class:`~repro.stream.incremental.StreamingScalarTree` reports, for
    callers that read them: every window is a full build, so after
    window ``k`` ``batches`` and ``full_rebuilds`` are ``k + 1`` and
    ``incremental`` and ``replayed_vertices`` are 0.
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
        exact-semantics case).  Otherwise an edge stays in the window
        until ``horizon`` after the frame that last touched it:
        ``stride < horizon`` gives overlapping windows with expiry
        quantized to frame boundaries.
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
    ) -> None:
        if not 0 < horizon < math.inf:
            raise ValueError(
                f"horizon must be positive and finite: {horizon!r}"
            )
        if stride is not None and not 0 < stride < math.inf:
            raise ValueError(f"stride must be positive and finite: {stride!r}")
        if origin is not None and not math.isfinite(origin):
            raise ValueError(f"origin must be finite: {origin!r}")
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
        self._t_end: Optional[float] = None
        self._index = 0
        self._buffer: List[np.ndarray] = []
        self._last_ts = -math.inf
        # Tumbling windows (stride == horizon) never overlap: the
        # frame's keys are the window.  Otherwise the window is every
        # key whose last touch (the t_end of the frame that last saw
        # it, kept alongside) is within the horizon.
        self._tumbling = self.stride == self.horizon
        self._live_keys = np.empty(0, dtype=np.int64)
        self._last_touch = np.empty(0, dtype=np.float64)

    # ------------------------------------------------------------------
    def _window_keys(self, rows: np.ndarray) -> np.ndarray:
        """Sorted unique canonical pair keys (``u * n + v``, u < v)."""
        a, b = rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64)
        u, v = np.minimum(a, b), np.maximum(a, b)
        keep = u != v
        # A sort and a mask over adjacent repeats: on a window's keys,
        # np.unique takes over ten times as long.
        keys = np.sort(u[keep] * self.n_vertices + v[keep])
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        return keys[first]

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
            seen = self._window_keys(rows)
            if self._tumbling:
                keys = seen
                n_new_edges = len(
                    np.setdiff1d(keys, self._live_keys, assume_unique=True)
                )
            else:
                # Keys that are live now and not re-touched, plus this
                # frame's; an edge expires once the frame that last
                # touched it ended ``horizon`` or more ago.
                kept = (
                    self._last_touch > self._t_end - self.horizon
                ) & ~np.isin(self._live_keys, seen, assume_unique=True)
                keys = np.concatenate([self._live_keys[kept], seen])
                touch = np.concatenate([
                    self._last_touch[kept], np.full(len(seen), self._t_end)
                ])
                order = np.argsort(keys)
                keys = keys[order]
                self._last_touch = touch[order]
                n_new_edges = len(seen)
            self._live_keys = keys
            n = self.n_vertices
            graph = from_edge_array(
                np.column_stack(np.divmod(keys, n)), n_vertices=n
            )
            scalars = registry.compute(self.measure, graph)
            tree = build_vertex_tree(ScalarGraph(graph, scalars))
            display = (
                simplify_tree(tree, self.bins, scheme=self.scheme)
                if self.bins
                else build_super_tree(tree)
            )
            builds = self._index + 1
            frame = WindowFrame(
                index=self._index,
                t_end=self._t_end,
                horizon=self.horizon,
                graph=graph,
                scalars=scalars,
                tree=tree,
                super=display,
                n_edges=int(graph.n_edges),
                n_new_edges=n_new_edges,
                stream_stats={
                    "batches": builds,
                    "incremental": 0,
                    "full_rebuilds": builds,
                    "replayed_vertices": 0,
                },
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
        A non-finite timestamp, and an endpoint that is not an integer
        in ``0..n_vertices-1``, raise ``ValueError``.
        """
        emitted_any = False
        for chunk in chunks:
            chunk = np.asarray(chunk, dtype=np.float64)
            if chunk.ndim != 2 or chunk.shape[1] < 3:
                raise ValueError("chunks must be (k, >=3) row arrays")
            if len(chunk) == 0:
                continue
            # A contiguous copy: reductions over a (k, 2) column slice
            # of the rows run several times slower.  NaN and ±inf
            # surface in the min and max.
            ids = np.ascontiguousarray(chunk[:, :2])
            lo, hi = ids.min(), ids.max()
            if not -math.inf < lo <= hi < math.inf or (
                ids != np.floor(ids)
            ).any():
                bad = ids[~np.isfinite(ids) | (ids != np.floor(ids))]
                raise ValueError(
                    f"vertex id {float(bad[0])!r} is not an integer"
                )
            if lo < 0 or hi >= self.n_vertices:
                raise _out_of_range(lo if lo < 0 else hi, self.n_vertices)
            ts_col = chunk[:, 2]
            finite = np.isfinite(ts_col)
            if not finite.all():
                raise ValueError(
                    f"timestamp {float(ts_col[~finite][0])!r} is not finite"
                )
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
