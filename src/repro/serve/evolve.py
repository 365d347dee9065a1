"""Serving temporal evolution: windows, trajectories, diff tiles, SSE.

An :class:`EvolveSession` registers a temporal edge log (or a
generated :class:`~repro.graph.generators.DynamicCommunityLog`) with
the app, reading and sorting the log once, when created; the first
request materializes one :class:`EvolveRun` from those rows —
timeline frames, tracked trajectories, rasterized diff fields — on
the runner's thread executor, coalesced so concurrent cold requests
build it exactly once.  Everything after that reads the run: a diff
tile is cut from two frames' fields on its first request, and the app
keeps its encoded payload with a strong ETag, exactly like the static
LOD tiles.

``GET /stream/{name}`` on an evolve session replays the run over the
existing SSE channel: a ``hello`` with the run geometry, then one
``window`` event per frame (frame summary + peak count), an
``events`` event per window that produced lifecycle events, and a
closing ``done`` — the temporal counterpart of the edit-log replay in
:mod:`repro.serve.stream`.
"""

from __future__ import annotations

import json
from typing import AsyncIterator, Dict, List, Optional, Tuple

import numpy as np

from ..evolve.diff import DiffTiler
from ..evolve.timeline import frames_from_rows
from ..evolve.tracker import PeakTracker, peaks_from_tree
from ..graph.io import iter_temporal_edges_sorted
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace

__all__ = ["EvolveSession", "EvolveRun", "evolve_sse_events"]

_M_RUN_WINDOWS = obs_metrics.REGISTRY.gauge(
    "repro_evolve_run_windows",
    "Windows processed per materialized evolve run.",
    ("run",),
)
_M_RUN_TRAJECTORIES = obs_metrics.REGISTRY.gauge(
    "repro_evolve_run_trajectories",
    "Tracked peak trajectories per evolve run.",
    ("run",),
)
_M_RUN_LIVE = obs_metrics.REGISTRY.gauge(
    "repro_evolve_run_live",
    "Trajectories still alive at the end of an evolve run.",
    ("run",),
)


class EvolveSession:
    """One registered temporal-evolution run specification.  The log
    is read here, once, into timestamp-sorted ``(k, 4)`` rows (32 bytes
    a row, kept for the session's life): a missing file raises
    ``FileNotFoundError`` and a malformed line
    :class:`~repro.graph.io.TemporalEdgeError`."""

    def __init__(
        self,
        name: str,
        log_path: str,
        *,
        measure: str = "degree",
        horizon: float = 1.0,
        stride: Optional[float] = None,
        origin: Optional[float] = None,
        alpha: Optional[float] = None,
        min_size: int = 3,
        jaccard: float = 0.3,
        resolution: int = 256,
        tile_size: int = 64,
        bins: Optional[int] = None,
    ) -> None:
        self.name = name
        spill: Dict[str, int] = {}
        chunks = list(iter_temporal_edges_sorted(log_path, stats=spill))
        self.rows = np.concatenate(chunks) if chunks else np.empty((0, 4))
        self.n_vertices = spill["n_vertices"]
        self.measure = measure
        self.horizon = float(horizon)
        self.stride = stride
        self.origin = origin
        self.alpha = alpha
        self.min_size = int(min_size)
        self.jaccard = float(jaccard)
        self.resolution = int(resolution)
        self.tile_size = int(tile_size)
        self.bins = bins

    def describe(self) -> Dict[str, object]:
        return {
            "run": self.name,
            "measure": self.measure,
            "horizon": self.horizon,
            "stride": self.stride if self.stride is not None else self.horizon,
            "alpha": self.alpha,
            "resolution": self.resolution,
            "tile_size": self.tile_size,
        }


class EvolveRun:
    """A materialized evolve session: frames tracked, diffed, indexed.

    Construction is synchronous and CPU-bound — run it on an executor
    thread (the app coalesces concurrent constructions).
    """

    def __init__(self, session: EvolveSession) -> None:
        self.session = session
        self.tracker = PeakTracker(
            jaccard=session.jaccard, min_size=session.min_size
        )
        self.tiler = DiffTiler(
            resolution=session.resolution, tile_size=session.tile_size
        )
        self.windows: List[Dict[str, object]] = []
        self._window_events: Dict[int, List[Dict[str, object]]] = {}
        with obs_trace.span("evolve.run", run=session.name):
            frames = frames_from_rows(
                session.rows,
                session.n_vertices,
                measure=session.measure,
                horizon=session.horizon,
                stride=session.stride,
                origin=session.origin,
                bins=session.bins,
            )
            for frame in frames:
                peaks = peaks_from_tree(
                    frame.super,
                    session.alpha,
                    session.min_size,
                    window=frame.index,
                )
                events = self.tracker.observe(frame.index, peaks)
                self.tiler.add_frame(frame)
                row = dict(frame.describe())
                row["n_peaks"] = len(peaks)
                row["n_events"] = len(events)
                if frame.index > 0:
                    row["diff"] = self.tiler.summary(frame.index)
                self.windows.append(row)
                if events:
                    self._window_events[frame.index] = [
                        e.describe() for e in events
                    ]
        stats = self.tracker.stats()
        _M_RUN_WINDOWS.set(len(self.windows), run=session.name)
        _M_RUN_TRAJECTORIES.set(stats["trajectories"], run=session.name)
        _M_RUN_LIVE.set(stats["live"], run=session.name)

    # -- read API -------------------------------------------------------
    @property
    def n_windows(self) -> int:
        return len(self.windows)

    def window_events(self, window: int) -> List[Dict[str, object]]:
        return self._window_events.get(window, [])

    def trajectory(self, tid: int) -> Optional[Dict[str, object]]:
        traj = self.tracker.trajectories.get(tid)
        if traj is None:
            return None
        doc = traj.describe()
        doc["events"] = [
            e.describe()
            for e in self.tracker.events
            if e.trajectory == tid or tid in e.others
        ]
        return doc

    def tile_payload(self, window: int, tx: int, ty: int) -> bytes:
        return self.tiler.tile(window, tx, ty).to_bytes()

    def stats(self) -> Dict[str, object]:
        stats = self.tracker.stats()
        return {
            "windows": self.n_windows,
            "trajectories": stats["trajectories"],
            "live": stats["live"],
            "events": stats["events"],
        }


async def evolve_sse_events(
    run_awaitable, session: EvolveSession
) -> AsyncIterator[Tuple[str, str]]:
    """SSE iterator replaying a materialized run's windows.

    ``run_awaitable`` resolves to the :class:`EvolveRun` (the app's
    coalesced build funnel), so the ``hello`` is only emitted once the
    run exists and every later event is a lookup.
    """
    run: EvolveRun = await run_awaitable
    hello = dict(session.describe(), windows=run.n_windows)
    yield "hello", json.dumps(hello)
    for row in run.windows:
        yield "window", json.dumps(row)
        events = run.window_events(int(row["index"]))
        if events:
            yield "events", json.dumps(
                {"window": row["index"], "events": events}
            )
    yield "done", json.dumps(dict(run.stats()))
