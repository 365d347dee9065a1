"""The terrain tile/query service: routes bound to cached pipelines.

:class:`ServeApp` owns one shared :class:`ArtifactCache`, one
:class:`StageRunner`, and a registry of datasets × measures.  Nothing is
built at boot: the first request for a (dataset, measure) triggers one
coalesced cold build (source → field → tree → layout → heightfield →
LOD levels) through the runner, and everything after that reads the
cache: a tile is cut from its cached level on its first request, and a
warm tile request is a lookup of its encoded payload, with zero
pipeline recomputation.

Routes
------
``GET /``                     service index
``GET /healthz``              liveness probe
``GET /stats``                cache/runner counters (benchmark hooks)
``GET /metrics``              Prometheus text exposition (repro.obs)
``GET /datasets``             served datasets, measures, tile grids
``GET /t/{ds}/{measure}/{level}/{tx}/{ty}``
                              binary tile; strong ETag, 304 on
                              ``If-None-Match``
``GET /peaks?dataset=&measure=&count=``
                              highest disconnected peaks as JSON
``GET /hit?dataset=&measure=&x=&y=``
                              hover hit-test via ``TerrainLayout.node_at``
``GET /treemap.svg?dataset=&measure=``   linked 2D treemap
``GET /profile.svg?dataset=&measure=``   linked 1D profile
``GET /stream/{session}``     SSE replay (see :mod:`repro.serve.stream`);
                              evolve sessions replay window frames here
``GET /evolve/windows``       per-window summary of an evolve run
``GET /evolve/peaks/{id}``    one tracked peak trajectory + its events
``GET /evolve/diff/{w}/{tx}/{ty}``
                              signed terrain-diff tile; strong ETag
``GET /dash``                 self-contained HTML dashboard (sparklines)
``GET /debug/prof?seconds=N`` on-demand profile: flamegraph SVG, or
                              collapsed text with ``format=collapsed``
``GET /debug/slow``           slow-request exemplars (span waterfall +
                              profile slice per request over threshold)
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from .. import accel
from ..accel import native as accel_native
from ..engine import ArtifactCache, Pipeline, registry
from ..engine.pipeline import DatasetSource, EdgeListSource, Source
from ..obs import metrics as obs_metrics
from ..obs import prof as obs_prof
from ..obs import trace as obs_trace
from ..resil import faults as resil_faults
from . import debug as serve_debug
from . import workers
from .evolve import EvolveRun, EvolveSession, evolve_sse_events
from .http import EventStreamResponse, HTTPError, Request, Response, Router
from .lod import LODPyramid, tile_etag
from .stream import StreamSession, sse_events
from .workers import StageRunner

__all__ = ["ServeApp"]

_TILE_CACHE_CONTROL = "public, max-age=0, must-revalidate"


def _tile_reply(
    request: Request, payload: bytes, etag: str, stale: bool = False
) -> Response:
    """The reply for a tile or diff tile: its strong ETag and
    revalidate-always caching, a 304 when the client already holds
    ``etag``, and a ``Warning`` when a stale copy stands in."""
    headers = [("ETag", etag), ("Cache-Control", _TILE_CACHE_CONTROL)]
    if stale:
        headers.append(("Warning", '110 repro "Response is Stale"'))
    held = request.if_none_match()
    if etag in held or "*" in held:
        return Response(304, b"", headers=headers)
    return Response(
        200, payload, content_type="application/x-repro-tile", headers=headers
    )


# Span summary for ``/stats``: one process-wide ring buffer registered at
# import.  It only receives records while tracing is enabled, so the
# default-off fast path is untouched; ``/stats`` rolls up whatever the
# ring currently holds.
_SPAN_RING = obs_trace.RingBufferExporter(capacity=4096)
obs_trace.add_exporter(_SPAN_RING)

_M_TILES = obs_metrics.REGISTRY.counter(
    "repro_tiles_served_total", "Tiles served by pyramid level.", ("level",)
)
_M_UPTIME = obs_metrics.REGISTRY.gauge(
    "repro_serve_uptime_seconds", "Server uptime (monotonic clock)."
)
_M_DIFF_TILES = obs_metrics.REGISTRY.counter(
    "repro_evolve_diff_tiles_served_total",
    "Terrain-diff tiles served by evolve runs.",
)
_M_STALE = obs_metrics.REGISTRY.counter(
    "repro_resil_stale_tiles_total",
    "Stale tiles served (with a Warning header) after a rebuild "
    "failed or timed out.",
)

#: Last-known-good tile payloads kept for graceful degradation.  Bounded
#: by entry count, separate from the LRU payload memo: the memo is a
#: performance cache (evicted under memory pressure), this is a safety
#: net consulted only when a rebuild fails.  The payloads it alone
#: holds (``/stats`` ``resil.stale_tiles.bytes``) sit outside
#: ``--cache-memory-mb``: up to ~32 MiB of 64-cell tiles.
_MAX_STALE_TILES = 512


class _DatasetEntry:
    __slots__ = ("name", "source", "measures")

    def __init__(self, name: str, source: Source, measures: List[str]) -> None:
        self.name = name
        self.source = source
        self.measures = measures


class ServeApp:
    """Route handlers + lazy pipeline state for the terrain server."""

    def __init__(
        self,
        *,
        cache: Optional[ArtifactCache] = None,
        runner: Optional[StageRunner] = None,
        tile_size: int = 64,
        levels: int = 3,
        bins: Optional[int] = None,
        max_disk_bytes: Optional[int] = None,
        request_timeout: Optional[float] = None,
    ) -> None:
        self.cache = cache if cache is not None else ArtifactCache()
        self.runner = runner if runner is not None else StageRunner()
        self.tile_size = tile_size
        self.levels = levels
        self.bins = bins
        # Disk-tier budget: pruned after every cold build funnel so a
        # long-lived server's cache directory cannot grow unboundedly.
        self.max_disk_bytes = max_disk_bytes
        self.datasets: Dict[str, _DatasetEntry] = {}
        self.sessions: Dict[str, StreamSession] = {}
        self.evolve_sessions: Dict[str, EvolveSession] = {}
        # Coalesced evolve materializations: one asyncio future per run
        # name, built on the runner's executor like the SSE replays.
        self._evolve_futures: Dict[str, "asyncio.Future"] = {}
        self._pyramids: Dict[Tuple[str, str], LODPyramid] = {}
        self._ready: Dict[Tuple[str, str], Dict[str, object]] = {}
        # Encoded warm tiles: logical key -> (payload, etag).  Static
        # content is immutable for the server's lifetime (content-hash
        # keyed), so this memo never needs invalidation — and it shares
        # the cache's memory budget: every stage artifact and these
        # payloads together stay under max_memory_bytes.  Outside it are
        # the stale store below and each pipeline's inputs (its graph
        # and field).  An evicted payload is cut again from its level's
        # field, which the tile's job rebuilds from those inputs if it
        # was evicted too.
        self._payloads: "OrderedDict[str, Tuple[bytes, str]]" = OrderedDict()
        self._payload_bytes = 0
        #: Per-request build deadline (seconds); None = unbounded.  The
        #: deadline rides on the coalesced build, so every rider of a
        #: too-slow build gets the same DeadlineExceeded (→ 504, or a
        #: stale tile when one exists) instead of queueing forever.
        self.request_timeout = request_timeout
        # Last-known-good tiles for serve-stale-on-error (Warning: 110).
        self._stale: "OrderedDict[str, Tuple[bytes, str]]" = OrderedDict()
        self._tally = obs_metrics.Tally(stale_served=_M_STALE)
        # Monotonic clock: uptime must never jump when the wall clock is
        # stepped (NTP corrections would yield negative or inflated
        # uptimes under time.time()).
        self._started = time.monotonic()
        # Debug surfaces: slow-request exemplars, the dashboard's
        # metrics-snapshot ring, and a continuous low-rate profiler.
        # The two background threads start lazily on the first request
        # observation or debug-page hit, so apps constructed in tests
        # (and never served) spawn no threads.
        self.slow_requests = serve_debug.SlowRequestStore()
        self.dash_ring = serve_debug.MetricsSnapshotRing()
        self.cont_profiler = obs_prof.ContinuousProfiler(hz=19)
        self._debug_started = False
        self._debug_lock = threading.Lock()

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started

    def _payload_get(self, key: str) -> Optional[Tuple[bytes, str]]:
        cached = self._payloads.get(key)
        if cached is not None:
            self._payloads.move_to_end(key)
        return cached

    def _payload_put(self, key: str, value: Tuple[bytes, str]) -> None:
        if key in self._payloads:
            return
        self._payloads[key] = value
        self._payload_bytes += len(value[0])
        budget = self.cache.max_memory_bytes
        if budget is None:
            return
        # One budget covers every stage artifact AND the encoded
        # payloads: the memo yields whatever headroom the cache's own
        # tier isn't using, so --cache-memory-mb bounds the two together,
        # not each tier (the stale store's copies of evicted payloads
        # and the pipelines' graphs and fields are not counted).
        while (
            self._payload_bytes + self.cache.memory_bytes > budget
            and len(self._payloads) > 1
        ):
            _, (old_payload, _) = self._payloads.popitem(last=False)
            self._payload_bytes -= len(old_payload)

    # -- registry -------------------------------------------------------
    def add_dataset(
        self,
        name: str,
        measures: List[str],
        *,
        edge_list: Optional[str] = None,
    ) -> None:
        """Serve ``name`` — a registered dataset, or an edge-list file
        when ``edge_list`` is given — under the listed measures."""
        if not measures:
            raise ValueError("at least one measure is required")
        known = registry.measure_names()
        for measure in measures:
            if measure not in known:
                raise KeyError(
                    f"unknown measure {measure!r}; known: {', '.join(known)}"
                )
        if edge_list is not None:
            source = EdgeListSource(edge_list)
        else:
            source = DatasetSource(name)
        self.datasets[name] = _DatasetEntry(name, source, list(measures))

    def add_stream_session(self, session: StreamSession) -> None:
        if session.name in self.evolve_sessions:
            raise ValueError(
                f"name {session.name!r} already taken by an evolve run"
            )
        self.sessions[session.name] = session

    def add_evolve_session(self, session: EvolveSession) -> None:
        # Both session kinds share the /stream/{name} channel, so the
        # name must be unique across them.
        if session.name in self.sessions or session.name in (
            self.evolve_sessions
        ):
            raise ValueError(f"session name {session.name!r} already taken")
        self.evolve_sessions[session.name] = session

    # -- evolve ---------------------------------------------------------
    def _evolve_session(self, request: Request) -> EvolveSession:
        if not self.evolve_sessions:
            raise HTTPError(404, "no evolve runs registered")
        default = next(iter(self.evolve_sessions))
        name = request.query_str("run", default=default)
        session = self.evolve_sessions.get(name)
        if session is None:
            raise HTTPError(
                404,
                f"unknown evolve run {name!r} "
                f"(available: {', '.join(sorted(self.evolve_sessions))})",
            )
        return session

    def _evolve_run(self, session: EvolveSession) -> "asyncio.Future":
        """The coalesced materialization future for one evolve run."""
        fut = self._evolve_futures.get(session.name)
        if fut is None or (fut.done() and fut.exception() is not None):
            loop = asyncio.get_running_loop()
            fut = asyncio.ensure_future(
                loop.run_in_executor(self.runner.executor, EvolveRun, session)
            )
            self._evolve_futures[session.name] = fut
        return fut

    async def _get_evolve_windows(self, request: Request) -> Response:
        session = self._evolve_session(request)
        run: EvolveRun = await self._evolve_run(session)
        return Response.json_(
            {
                "run": session.name,
                "runs": sorted(self.evolve_sessions),
                "measure": session.measure,
                "horizon": session.horizon,
                "tiles_per_side": run.tiler.tiles_per_side,
                "tile_size": session.tile_size,
                "windows": run.windows,
                "tracker": run.stats(),
            }
        )

    async def _get_evolve_peak(
        self, request: Request, tid: str
    ) -> Response:
        session = self._evolve_session(request)
        run: EvolveRun = await self._evolve_run(session)
        try:
            tid_i = int(tid)
        except ValueError:
            raise HTTPError(400, "trajectory id must be an integer")
        doc = run.trajectory(tid_i)
        if doc is None:
            raise HTTPError(
                404,
                f"no trajectory {tid_i} in run {session.name!r} "
                f"({len(run.tracker.trajectories)} tracked)",
            )
        return Response.json_(dict(doc, run=session.name))

    async def _get_evolve_diff(
        self, request: Request, w: str, tx: str, ty: str
    ) -> Response:
        session = self._evolve_session(request)
        run: EvolveRun = await self._evolve_run(session)
        try:
            w_i, tx_i, ty_i = int(w), int(tx), int(ty)
        except ValueError:
            raise HTTPError(400, "diff tile coordinates must be integers")
        per = run.tiler.tiles_per_side
        if not (1 <= w_i < run.n_windows and 0 <= tx_i < per and 0 <= ty_i < per):
            raise HTTPError(
                404,
                f"no diff tile ({w_i}, {tx_i}, {ty_i}) — run "
                f"{session.name!r} has windows 1..{run.n_windows - 1} "
                f"on a {per}x{per} grid",
            )
        memo_key = f"evolvediff:{session.name}:{w_i}:{tx_i}:{ty_i}"
        cached = self._payload_get(memo_key)
        if cached is None:
            loop = asyncio.get_running_loop()
            payload = await loop.run_in_executor(
                self.runner.executor,
                run.tile_payload, w_i, tx_i, ty_i,
            )
            cached = (payload, tile_etag(payload))
            self._payload_put(memo_key, cached)
        _M_DIFF_TILES.inc()
        return _tile_reply(request, *cached)

    # -- lookup helpers -------------------------------------------------
    def _entry(self, ds: str) -> _DatasetEntry:
        entry = self.datasets.get(ds)
        if entry is None:
            raise HTTPError(404, f"unknown dataset {ds!r}")
        return entry

    def _check_measure(self, entry: _DatasetEntry, measure: str) -> str:
        if measure not in entry.measures:
            raise HTTPError(
                404,
                f"dataset {entry.name!r} is not served under measure "
                f"{measure!r} (available: {', '.join(entry.measures)})",
            )
        return measure

    def _ds_measure(self, request: Request) -> Tuple[_DatasetEntry, str]:
        entry = self._entry(request.query_str("dataset"))
        return entry, self._check_measure(entry, request.query_str("measure"))

    def pyramid(self, entry: _DatasetEntry, measure: str) -> LODPyramid:
        """The pyramid for ``(entry, measure)`` over the shared cache:
        every job's target, the tile geometry and the reader of cached
        stages (nothing is built until a job asks)."""
        key = (entry.name, measure)
        pyramid = self._pyramids.get(key)
        if pyramid is None:
            pipeline = Pipeline(
                entry.source, measure, bins=self.bins, cache=self.cache
            )
            pyramid = self._pyramids[key] = LODPyramid(
                pipeline, tile_size=self.tile_size, levels=self.levels
            )
        return pyramid

    async def _run(self, key, entry, measure, fn, *args, interactive):
        """Run job ``fn(pyramid, *args)`` for ``key`` on the runner."""
        return await self.runner.run(
            key, fn, self.pyramid(entry, measure), *args,
            interactive=interactive, timeout=self.request_timeout,
        )

    # -- coalesced build funnel ----------------------------------------
    async def _ensure(
        self, entry: _DatasetEntry, measure: str, interactive: bool = False
    ) -> Dict[str, object]:
        """Cold-start funnel: every endpoint for (dataset, measure)
        first awaits this one coalesced full build, so concurrent cold
        requests — same tile or not — trigger exactly one pipeline
        build, and everything downstream only reads caches."""
        key = (entry.name, measure)
        ready = self._ready.get(key)
        if ready is not None:
            return ready
        ready = await self._run(
            f"levels:{entry.name}:{measure}", entry, measure,
            LODPyramid.ensure_levels, interactive=interactive,
        )
        self._ready[key] = ready
        if self.max_disk_bytes is not None:
            self.cache.prune(self.max_disk_bytes)
        return ready

    #: Job kinds answered to a pointing human (small, latency-bound
    #: reads) get the admission gate's reserved slots; cold tile/SVG
    #: builds are bulk and shed first under overload.
    _INTERACTIVE_KINDS = frozenset({"hit", "peaks"})

    async def _job(self, entry, measure, kind, fn, *args):
        """Run job ``fn(pyramid, *args)`` after the cold funnel,
        coalesced per (kind, dataset, measure, args)."""
        interactive = kind in self._INTERACTIVE_KINDS
        await self._ensure(entry, measure, interactive=interactive)
        run_key = f"{kind}:{entry.name}:{measure}:" + ":".join(
            str(a) for a in args
        )
        return await self._run(
            run_key, entry, measure, fn, *args, interactive=interactive
        )

    # -- handlers -------------------------------------------------------
    async def _get_index(self, request: Request) -> Response:
        from .. import __version__

        return Response.json_(
            {
                "service": "repro.serve",
                "version": __version__,
                "endpoints": [
                    "/datasets",
                    "/t/{ds}/{measure}/{level}/{tx}/{ty}",
                    "/peaks?dataset=&measure=&count=",
                    "/hit?dataset=&measure=&x=&y=",
                    "/treemap.svg?dataset=&measure=",
                    "/profile.svg?dataset=&measure=",
                    "/stream/{session}",
                    "/evolve/windows",
                    "/evolve/peaks/{id}",
                    "/evolve/diff/{w}/{tx}/{ty}",
                    "/stats",
                    "/metrics",
                    "/healthz",
                    "/dash",
                    "/debug/prof?seconds=N",
                    "/debug/slow",
                ],
            }
        )

    async def _get_healthz(self, request: Request) -> Response:
        return Response.json_({"ok": True})

    async def _get_stats(self, request: Request) -> Response:
        _M_UPTIME.set(self.uptime_s)
        payload = {
            "cache": dict(
                self.cache.stats,
                entries=len(self.cache),
                memory_bytes=self.cache.memory_bytes,
                max_memory_bytes=self.cache.max_memory_bytes,
                disk=dict(
                    self.cache.disk_stats(),
                    max_bytes=self.max_disk_bytes,
                ),
            ),
            "runner": self.runner.stats,
            "warm_tiles": len(self._payloads),
            "uptime_s": self.uptime_s,
            # Per-span-name rollup of the recent trace ring (empty when
            # tracing is disabled — the ring only fills under --trace).
            # Bounded to the hottest names by total ms so the payload
            # stays flat on long-lived servers with many span names.
            "spans": obs_trace.rollup(_SPAN_RING.snapshot(), top=20),
            # Kernel tier powering cold builds: the configured mode plus
            # the native tier's compile/cache/fallback status (passive —
            # never triggers a compile from a stats scrape).
            "accel": {
                "backend": accel.get_backend(),
                "native": accel_native.info(),
            },
            # Resilience posture: retry policy, admission gate, breaker
            # table, stale fallbacks, and (when --faults is active) the
            # injection schedule with per-site pass/fire counts.
            "resil": dict(
                self.runner.resil_snapshot(),
                stale_tiles={
                    "held": len(self._stale),
                    "served": self._tally["stale_served"],
                    # Evicted from the memo, held outside the budget.
                    "bytes": sum(
                        len(payload)
                        for key, (payload, _) in self._stale.items()
                        if key not in self._payloads
                    ),
                },
                request_timeout=self.request_timeout,
                faults=resil_faults.snapshot(),
            ),
        }
        if self.evolve_sessions:
            # Materialized runs only — a stats scrape never triggers a
            # timeline build.  The same numbers back the
            # repro_evolve_run_* gauges on /metrics.
            runs = {}
            for name in sorted(self.evolve_sessions):
                fut = self._evolve_futures.get(name)
                if (
                    fut is not None
                    and fut.done()
                    and fut.exception() is None
                ):
                    runs[name] = fut.result().stats()
                else:
                    runs[name] = {"built": False}
            payload["evolve"] = {
                "runs": runs,
                "windows": sum(
                    r.get("windows", 0) for r in runs.values()
                ),
                "tracked_peaks": sum(
                    r.get("trajectories", 0) for r in runs.values()
                ),
                "live_trajectories": sum(
                    r.get("live", 0) for r in runs.values()
                ),
            }
        return Response.json_(payload)

    async def _get_metrics(self, request: Request) -> Response:
        """Prometheus text exposition of the process-wide registry."""
        self.cache.refresh_metrics()
        _M_UPTIME.set(self.uptime_s)
        return Response.text(
            obs_metrics.REGISTRY.render(),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    async def _get_datasets(self, request: Request) -> Response:
        rows = []
        for entry in self.datasets.values():
            geometry = self.pyramid(entry, entry.measures[0])
            row = {
                "name": entry.name,
                "source": (
                    "edge_list"
                    if isinstance(entry.source, EdgeListSource)
                    else "dataset"
                ),
                "measures": entry.measures,
                "tile_size": geometry.tile_size,
                "levels": geometry.levels,
                "base_resolution": geometry.base_resolution,
                "tiles_per_side": [
                    geometry.tiles_per_side(level)
                    for level in range(geometry.levels)
                ],
                "tile_url": "/t/{ds}/{measure}/{level}/{tx}/{ty}".replace(
                    "{ds}", entry.name
                ),
            }
            ready = {
                m: self._ready.get((entry.name, m), None)
                for m in entry.measures
            }
            row["ready"] = {
                m: (None if r is None else {"extent": r["extent"]})
                for m, r in ready.items()
            }
            rows.append(row)
        return Response.json_(
            {
                "datasets": rows,
                "bins": self.bins,
                "sessions": sorted(self.sessions),
                "evolve": sorted(self.evolve_sessions),
            }
        )

    async def _get_tile(
        self, request: Request, ds: str, measure: str,
        level: str, tx: str, ty: str,
    ) -> Response:
        entry = self._entry(ds)
        self._check_measure(entry, measure)
        try:
            level_i, tx_i, ty_i = int(level), int(tx), int(ty)
        except ValueError:
            raise HTTPError(400, "tile coordinates must be integers")
        # Bounds come from the pyramid itself (construction is free), so
        # the HTTP 404 contract can never drift from the tiles built.
        geometry = self.pyramid(entry, measure)
        try:
            per_side = geometry.tiles_per_side(level_i)
        except KeyError:
            per_side = 0
        if not (0 <= tx_i < per_side and 0 <= ty_i < per_side):
            raise HTTPError(
                404,
                f"no tile ({level_i}, {tx_i}, {ty_i}) — pyramid has "
                f"{self.levels} levels of {self.tile_size}px tiles",
            )
        memo_key = f"tile:{ds}:{measure}:{level_i}:{tx_i}:{ty_i}"
        stale = False
        cached = self._payload_get(memo_key)
        if cached is None:
            try:
                cached = await self._job(
                    entry, measure, "tile",
                    LODPyramid.tile_payload, level_i, tx_i, ty_i,
                )
            except HTTPError:
                raise
            except Exception:
                # Covers Saturated, CircuitOpen, DeadlineExceeded and
                # genuine build failures alike (CancelledError is a
                # BaseException and still propagates).
                # Graceful degradation: a failed or timed-out rebuild
                # serves the last known good payload with a Warning
                # header instead of an error — stale terrain beats a
                # hole in the map.  No stale copy → the error stands.
                stale_copy = self._stale.get(memo_key)
                if stale_copy is None:
                    raise
                cached, stale = stale_copy, True
                self._tally.inc("stale_served")
            else:
                self._payload_put(memo_key, cached)
        self._stale[memo_key] = cached
        self._stale.move_to_end(memo_key)
        while len(self._stale) > _MAX_STALE_TILES:
            self._stale.popitem(last=False)
        _M_TILES.inc(level=str(level_i))
        return _tile_reply(request, *cached, stale=stale)

    async def _get_peaks(self, request: Request) -> Response:
        entry, measure = self._ds_measure(request)
        count = request.query_int("count", default=3, lo=1, hi=64)
        peaks = await self._job(
            entry, measure, "peaks", workers.peaks, count
        )
        return Response.json_(
            {"dataset": entry.name, "measure": measure, "peaks": peaks}
        )

    async def _get_hit(self, request: Request) -> Response:
        entry, measure = self._ds_measure(request)
        x = request.query_float("x")
        y = request.query_float("y")
        hit = await self._job(entry, measure, "hit", workers.hit, x, y)
        return Response.json_(
            dict(hit, dataset=entry.name, measure=measure, x=x, y=y)
        )

    async def _get_treemap(self, request: Request) -> Response:
        entry, measure = self._ds_measure(request)
        size = request.query_int("size", default=640, lo=64, hi=4096)
        svg = await self._job(
            entry, measure, "treemap", workers.treemap_svg, size
        )
        return Response.text(svg, content_type="image/svg+xml")

    async def _get_profile(self, request: Request) -> Response:
        entry, measure = self._ds_measure(request)
        width = request.query_int("width", default=720, lo=64, hi=4096)
        height = request.query_int("height", default=240, lo=64, hi=4096)
        svg = await self._job(
            entry, measure, "profile", workers.profile_svg, width, height
        )
        return Response.text(svg, content_type="image/svg+xml")

    async def _get_stream(
        self, request: Request, session: str
    ) -> EventStreamResponse:
        # Evolve sessions share the stream channel: same SSE transport,
        # window-frame events instead of edit-batch replays.
        evolve = self.evolve_sessions.get(session)
        if evolve is not None:
            return EventStreamResponse(
                evolve_sse_events(self._evolve_run(evolve), evolve)
            )
        spec = self.sessions.get(session)
        if spec is None:
            raise HTTPError(404, f"unknown stream session {session!r}")
        return EventStreamResponse(sse_events(spec, self.runner, self.cache))

    # -- debug surfaces -------------------------------------------------
    def _ensure_debug_started(self) -> None:
        """Start the continuous profiler and dash sampler once, on the
        first observed request or debug-page hit."""
        if self._debug_started:
            return
        with self._debug_lock:
            if self._debug_started:
                return
            self.cont_profiler.start()
            self.dash_ring.start()
            self._debug_started = True

    def close(self) -> None:
        """Stop the profiler and dash sampler threads and the runner's
        pool; called once the server has stopped."""
        self.cont_profiler.stop()
        self.dash_ring.stop()
        self.runner.shutdown()

    def observe_request(
        self,
        *,
        path: str,
        request_id: str,
        status: int,
        t0_wall: float,
        dur_s: float,
    ) -> None:
        """HTTP-server hook, called once per finished request (after
        the response is written — never on the latency path)."""
        self._ensure_debug_started()
        self.slow_requests.observe(
            path=path,
            request_id=request_id,
            status=status,
            t0_wall=t0_wall,
            dur_s=dur_s,
            span_records=_SPAN_RING.snapshot(),
            profiler=self.cont_profiler,
        )

    async def _get_dash(self, request: Request) -> Response:
        self._ensure_debug_started()
        self.dash_ring.sample()  # one fresh point so the view is current
        _M_UPTIME.set(self.uptime_s)
        page = serve_debug.render_dash(
            ring=self.dash_ring,
            slow=self.slow_requests,
            uptime_s=self.uptime_s,
            span_rollup=obs_trace.rollup(_SPAN_RING.snapshot(), top=15),
        )
        return Response.text(page, content_type="text/html; charset=utf-8")

    async def _get_debug_prof(self, request: Request) -> Response:
        """On-demand sampled profile of the live server: block this
        handler ``seconds`` (the event loop keeps serving), then render
        a flamegraph SVG (default) or collapsed text."""
        self._ensure_debug_started()
        seconds = request.query_int("seconds", default=2, lo=1, hi=30)
        hz = request.query_int("hz", default=obs_prof.DEFAULT_HZ, lo=1,
                               hi=997)
        fmt = request.query_str("format", default="svg")
        if fmt not in ("svg", "collapsed"):
            raise HTTPError(400, "format must be 'svg' or 'collapsed'")
        profiler = obs_prof.SamplingProfiler(hz=hz).start()
        try:
            await asyncio.sleep(seconds)
        finally:
            profile = profiler.stop()
        if fmt == "collapsed":
            return Response.text(
                profile.collapsed(),
                content_type="text/plain; charset=utf-8",
            )
        svg = obs_prof.flamegraph_svg(
            profile, title=f"repro serve — {seconds}s at {hz}Hz"
        )
        return Response.text(svg, content_type="image/svg+xml")

    async def _get_debug_slow(self, request: Request) -> Response:
        self._ensure_debug_started()
        return Response.json_(
            {
                "threshold_s": self.slow_requests.threshold_s,
                "observed": self.slow_requests.observed,
                "captured": self.slow_requests.captured,
                "exemplars": self.slow_requests.snapshot(),
            }
        )

    # -- router ---------------------------------------------------------
    def router(self) -> Router:
        router = Router()
        router.get("/", self._get_index)
        router.get("/healthz", self._get_healthz)
        router.get("/stats", self._get_stats)
        router.get("/metrics", self._get_metrics)
        router.get("/datasets", self._get_datasets)
        router.get("/t/{ds}/{measure}/{level}/{tx}/{ty}", self._get_tile)
        router.get("/peaks", self._get_peaks)
        router.get("/hit", self._get_hit)
        router.get("/treemap.svg", self._get_treemap)
        router.get("/profile.svg", self._get_profile)
        router.get("/stream/{session}", self._get_stream)
        router.get("/evolve/windows", self._get_evolve_windows)
        router.get("/evolve/peaks/{tid}", self._get_evolve_peak)
        router.get("/evolve/diff/{w}/{tx}/{ty}", self._get_evolve_diff)
        router.get("/dash", self._get_dash)
        router.get("/debug/prof", self._get_debug_prof)
        router.get("/debug/slow", self._get_debug_slow)
        return router
