"""repro.serve — concurrent terrain tile/query server over the engine.

The interactive half of the paper's terrain metaphor: precompute once
through the cached :mod:`repro.engine` pipeline, then serve cheap slices
of the cached artifacts concurrently.  Stdlib-only — a hand-rolled HTTP/1.1
service on ``asyncio.start_server``, zero new runtime dependencies.

``repro.serve.lod``
    :class:`LODPyramid` — rasterize once at maximum resolution per
    (dataset, measure, bins), derive power-of-two downsampled levels,
    cut fixed-size ``(level, tx, ty)`` tiles from them, each served with
    a strong content-hash ETag; the app keeps the encoded tiles.
``repro.serve.http``
    The minimal HTTP layer: request parsing, segment router,
    keep-alive, Server-Sent Events.
``repro.serve.workers``
    :class:`StageRunner` — CPU-bound stages on one bounded thread pool
    with per-key request coalescing: concurrent cold requests for one
    artifact trigger exactly one build; and the serve jobs, functions
    of a pyramid.
``repro.serve.app``
    :class:`ServeApp` — the routes (``/datasets``, tiles, ``/peaks``,
    ``/hit``, the linked SVG displays, ``/stats``).
``repro.serve.stream``
    ``GET /stream/{session}`` — SSE replay of a JSONL edit log through
    the streaming pipeline, pushing dirty-tile invalidations and frame
    summaries.
``repro.serve.evolve``
    Temporal evolution endpoints — ``/evolve/windows``, peak
    trajectories, signed terrain-diff tiles, and window-frame SSE on
    the stream channel (see :mod:`repro.evolve`).
``repro.serve.testing``
    :class:`ServerThread` — run an app on a background thread for
    tests, benchmarks and example clients.

Start from the CLI (``repro serve --datasets grqc --measures kcore``)
or embed::

    from repro.serve import ServeApp, ServerThread

    app = ServeApp(tile_size=32, levels=2)
    app.add_dataset("grqc", ["kcore"])
    with ServerThread(app) as server:
        print(server.url)  # e.g. http://127.0.0.1:49152
"""

from .app import ServeApp
from .evolve import EvolveRun, EvolveSession, evolve_sse_events
from .http import (
    EventStreamResponse,
    HTTPError,
    HTTPServer,
    Request,
    Response,
    Router,
)
from .lod import LODPyramid, tile_etag
from .stream import StreamSession, dirty_tiles, sse_events
from .testing import ServerThread
from .workers import StageRunner

__all__ = [
    "ServeApp",
    "LODPyramid",
    "tile_etag",
    "StageRunner",
    "StreamSession",
    "sse_events",
    "dirty_tiles",
    "EvolveSession",
    "EvolveRun",
    "evolve_sse_events",
    "HTTPServer",
    "HTTPError",
    "Router",
    "Request",
    "Response",
    "EventStreamResponse",
    "ServerThread",
]
