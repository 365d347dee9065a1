"""Server-Sent Events replay of a JSONL edit log.

``GET /stream/{session}`` replays a registered edit log through a
:class:`~repro.engine.pipeline.StreamingPipeline` and pushes, per batch:

* ``invalidate`` — the LOD tiles whose content changed, as
  ``[level, tx, ty]`` triples at every pyramid level, so a tile client
  refetches exactly the dirty part of its view;
* ``frame`` — a summary of the new state (batch index, timestamp, edit
  count, super-node count, the maintainer's incremental-vs-rebuild
  stats).

The stream opens with a ``hello`` event carrying the session's pyramid
geometry and closes with ``done``.  The log is read once, when the
session is created, so a replay never reads a file after the ``200``
head is sent.  Each request gets its own replay of those batches (the
session is a recorded log, not shared mutable state), and every
pipeline step runs on the runner's executor so the event loop stays
responsive while frames are computed.

Dirty tiles are found by diffing consecutive base-resolution
heightfields block-by-block; if the layout's extent or ground plane
moved, the whole view is dirty (the terrain re-projected globally).
"""

from __future__ import annotations

import asyncio
import json
from typing import AsyncIterator, Dict, List, Optional, Tuple

import numpy as np

from ..engine.pipeline import Source, StreamingPipeline
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..stream import read_edit_log
from ..terrain.heightfield import Heightfield

__all__ = ["StreamSession", "sse_events", "dirty_tiles"]

_M_REPLAY_ABORTS = obs_metrics.REGISTRY.counter(
    "repro_resil_sse_aborts_total",
    "SSE replays ended early by a client disconnect or server drain.",
)


class StreamSession:
    """One replayable SSE session registered with the app.  The edit
    log is read here, once: a missing file raises
    ``FileNotFoundError`` and a malformed line
    :class:`~repro.stream.EditLogError`."""

    def __init__(
        self,
        name: str,
        source: Source,
        measure: str,
        log_path: str,
        *,
        bins: Optional[int] = None,
        tile_size: int = 64,
        levels: int = 3,
        interval: float = 0.0,
    ) -> None:
        self.name = name
        self.source = source
        self.measure = measure
        self.batches = read_edit_log(log_path)
        self.bins = bins
        self.tile_size = int(tile_size)
        self.levels = int(levels)
        self.interval = interval

    @property
    def base_resolution(self) -> int:
        return self.tile_size * 2 ** (self.levels - 1)

    def describe(self) -> Dict[str, object]:
        return {
            "session": self.name,
            "measure": self.measure,
            "tile_size": self.tile_size,
            "levels": self.levels,
            "base_resolution": self.base_resolution,
        }


def dirty_tiles(
    prev: Heightfield,
    cur: Heightfield,
    tile_size: int,
    levels: int,
) -> List[Tuple[int, int, int]]:
    """``(level, tx, ty)`` of every tile whose content changed.

    A changed base tile dirties its covering tile at every coarser
    level (the downsample of a dirty region is dirty).
    """
    per = prev.height.shape[0] // tile_size
    if (
        cur.height.shape != prev.height.shape
        or cur.extent != prev.extent
        or cur.base != prev.base
    ):
        changed = np.ones((per, per), dtype=bool)
    else:
        diff = (prev.height != cur.height) | (prev.node != cur.node)
        changed = (
            diff.reshape(per, tile_size, per, tile_size)
            .transpose(0, 2, 1, 3)
            .reshape(per, per, -1)
            .any(axis=2)
        )
    dirty: List[Tuple[int, int, int]] = []
    for level in range(levels):
        scale = 2 ** level  # always divides per (both are powers of two)
        coarse = changed.reshape(
            per // scale, scale, per // scale, scale
        ).any(axis=(1, 3))
        for ty, tx in np.argwhere(coarse):
            dirty.append((level, int(tx), int(ty)))
    return dirty


class _Replay:
    """Synchronous replay state (built and stepped on executor threads)."""

    def __init__(self, session: StreamSession, cache) -> None:
        self.session = session
        self.pipeline = StreamingPipeline(
            session.source,
            session.measure,
            bins=session.bins,
            cache=cache,
        )
        self.prev = self.pipeline.heightfield(session.base_resolution)

    def step(self, index: int) -> Dict[str, object]:
        when, batch = self.session.batches[index]
        with obs_trace.span(
            "stream.frame",
            session=self.session.name,
            batch=index,
            edits=len(batch),
        ):
            self.pipeline.apply(batch)
            cur = self.pipeline.heightfield(self.session.base_resolution)
            dirty = dirty_tiles(
                self.prev, cur, self.session.tile_size, self.session.levels
            )
        self.prev = cur
        stats = self.pipeline.stats
        return {
            "batch": index,
            "t": when,
            "edits": len(batch),
            "super_nodes": int(self.pipeline.display_tree.n_nodes),
            "dirty": [list(d) for d in dirty],
            "incremental": int(stats["incremental"]),
            "full_rebuilds": int(stats["full_rebuilds"]),
        }


async def sse_events(
    session: StreamSession, runner, cache
) -> AsyncIterator[Tuple[str, str]]:
    """The SSE event iterator for one ``GET /stream/{session}``."""
    loop = asyncio.get_running_loop()
    # One fresh replay per request, on the runner's bounded pool.
    executor = runner.executor
    replay = await loop.run_in_executor(executor, _Replay, session, cache)
    hello = dict(session.describe(), batches=len(session.batches))
    try:
        yield "hello", json.dumps(hello)
        for index in range(len(session.batches)):
            frame = await loop.run_in_executor(executor, replay.step, index)
            dirty = frame.pop("dirty")
            if dirty:
                yield "invalidate", json.dumps(
                    {"batch": frame["batch"], "tiles": dirty}
                )
            yield "frame", json.dumps(frame)
            if session.interval > 0:
                await asyncio.sleep(session.interval)
        yield "done", json.dumps({"batches": len(session.batches)})
    except GeneratorExit:
        # The client went away (or the server is draining): the generator
        # is closed at its current yield, so no further frames are built.
        _M_REPLAY_ABORTS.inc()
        raise
