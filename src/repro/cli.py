"""Command-line interface: ``python -m repro <command> ...``.

The commands cover the common workflows without writing any Python,
and all of them are thin wrappers over one :class:`repro.engine.Pipeline`
(static), :class:`repro.engine.StreamingPipeline` (incremental), or the
:mod:`repro.serve` application:

* ``terrain`` — render the terrain of a registered dataset (or an edge
  list file) under a chosen measure;
* ``peaks``   — list the highest disconnected peaks (densest K-cores /
  K-trusses / community cores);
* ``treemap`` / ``profile`` — the linked 2D displays;
* ``correlate`` — LCI/GCI of two vertex measures;
* ``stream``  — replay a JSONL edit log through the incremental
  maintainer and emit terrain frames;
* ``evolve``  — drive a timestamped ``src dst ts [w]`` edge log (or
  the planted dynamic-community generator) through the windowed
  timeline, track peaks into trajectories, and report lifecycle
  events and terrain-diff summaries;
* ``serve``   — boot the concurrent terrain tile/query HTTP server
  (LOD tile pyramid, peaks/hit/treemap/profile endpoints, SSE stream
  replay) on top of the same cached pipelines.

Measures are resolved through :mod:`repro.engine.registry` (so
``--measure`` is validated at parse time against the registry's known
names), and expensive stage artifacts are reused through the engine's
cache — pass ``--cache-dir`` (or set ``$REPRO_CACHE_DIR``) to persist
them across runs.

Examples::

    python -m repro terrain --dataset grqc --measure kcore -o out.png
    python -m repro peaks --dataset ppi --measure ktruss --count 3
    python -m repro correlate --dataset astro degree betweenness
    python -m repro stream --dataset amazon --log edits.jsonl \
        --frames-dir frames/
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .core import global_correlation_index, outlier_score
from .obs import metrics as obs_metrics
from .obs import trace as obs_trace
from .resil import faults as resil_faults
from .engine import (
    ArtifactCache,
    DatasetSource,
    EdgeListSource,
    Pipeline,
    StreamingPipeline,
    registry,
)
from .graph.io import EdgeListError
from .stream import read_edit_log
from .terrain import Camera

__all__ = ["main", "version_string"]


def version_string() -> str:
    """``repro X.Y.Z`` from installed package metadata, falling back to
    the in-tree ``__version__`` for PYTHONPATH=src checkouts."""
    try:
        from importlib.metadata import version

        return f"repro {version('repro')}"
    except Exception:
        from . import __version__

        return f"repro {__version__}"


def _measure_arg(value: str) -> str:
    """argparse type: any registered measure (choices-style error)."""
    known = registry.measure_names()
    if value not in known:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {value!r} (choose from {', '.join(known)})"
        )
    return value


def _vertex_measure_arg(value: str) -> str:
    """argparse type: a registered *vertex* measure."""
    known = registry.measure_names(kind="vertex")
    if value not in known:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {value!r} (vertex measures only; choose "
            f"from {', '.join(known)})"
        )
    return value


def _number_arg(kind, low, strict=False):
    """argparse type: a finite ``kind`` (int or float) that is at least
    ``low``, or above it when ``strict``."""

    def parse(value: str):
        try:
            number = kind(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {value!r}"
            )
        if not math.isfinite(number):
            raise argparse.ArgumentTypeError(f"must be finite, got {value!r}")
        if not (number > low if strict else number >= low):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {low}, got {value!r}"
            )
        return number

    return parse


# Image sizes in pixels, heightfield resolution (the minimum
# ``rasterize`` accepts), and the camera zoom factor.
_positive_int_arg = _number_arg(int, 1)
_resolution_arg = _number_arg(int, 4)
_zoom_arg = _number_arg(float, 0, strict=True)


def _source(args):
    if args.dataset:
        return DatasetSource(args.dataset)
    if args.edge_list:
        return EdgeListSource(args.edge_list)
    raise SystemExit("provide --dataset or --edge-list")


def _cache(args) -> ArtifactCache:
    if args.cache_dir:
        return ArtifactCache(args.cache_dir)
    return ArtifactCache.from_env()


def _pipeline(args) -> Pipeline:
    return Pipeline(
        _source(args), args.measure, bins=args.bins, cache=_cache(args)
    )


def _add_common(
    parser: argparse.ArgumentParser, measure_type=_measure_arg
) -> None:
    parser.add_argument("--dataset", help="registered dataset name")
    parser.add_argument("--edge-list", help="path to a SNAP-style edge list")
    parser.add_argument(
        "--bins", type=int, default=None,
        help="simplify the tree to ~N scalar levels before drawing",
    )
    kind = "vertex" if measure_type is _vertex_measure_arg else None
    parser.add_argument(
        "--measure", default="kcore", type=measure_type,
        help="scalar measure; one of: "
             + ", ".join(registry.measure_names(kind=kind)),
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="persist pipeline artifacts here (default: $REPRO_CACHE_DIR "
             "if set, else in-memory only)",
    )
    _add_obs(parser)
    _add_resil(parser)


def _add_resil(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="deterministic fault injection for chaos testing: "
             "'site:occurrences[:param]' rules joined by ';' (e.g. "
             "'worker_kill:1;task_delay:*:0.05'); sites: "
             + ", ".join(resil_faults.SITES)
             + " (default: $REPRO_FAULTS if set, else off)",
    )


def _add_obs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="enable repro.obs tracing and append span records (JSONL) "
             "to PATH; convert with repro.obs.trace.chrome_trace_from_jsonl "
             "for chrome://tracing / Perfetto (default: $REPRO_TRACE "
             "if set, else off)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the repro.obs metrics registry (Prometheus text "
             "format) to stderr on exit",
    )


def _cmd_terrain(args) -> int:
    pipeline = _pipeline(args)
    camera = Camera(
        azimuth=args.azimuth, elevation=args.elevation,
    ).zoomed(args.zoom)
    pipeline.render(
        path=args.output,
        camera=camera,
        resolution=args.resolution,
        width=args.width, height=args.height,
    )
    print(f"terrain of {args.measure} -> {args.output} "
          f"({pipeline.display_tree.n_nodes} super nodes)")
    return 0


def _cmd_peaks(args) -> int:
    pipeline = _pipeline(args)
    unit = "edges" if pipeline.display_tree.kind == "edge" else "vertices"
    for i, peak in enumerate(pipeline.peaks(count=args.count)):
        print(f"#{i + 1}: level {peak.alpha:g}, {peak.size} {unit}, "
              f"summit {peak.summit:g}")
    return 0


def _cmd_treemap(args) -> int:
    pipeline = _pipeline(args)
    pipeline.treemap(path=args.output, size=args.width)
    print(f"treemap of {args.measure} -> {args.output}")
    return 0


def _cmd_profile(args) -> int:
    pipeline = _pipeline(args)
    pipeline.profile(path=args.output, width=args.width, height=args.height)
    print(f"profile of {args.measure} -> {args.output}")
    return 0


def _cmd_prof(args) -> int:
    """Run another CLI command under the sampling profiler and write
    ``<output>.collapsed`` (collapsed-stack text) + ``<output>.svg``
    (flamegraph)."""
    from .obs import prof as obs_prof

    rest = list(args.argv)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        print("prof: nothing to profile — usage: repro prof [-o NAME] "
              "[--hz HZ] -- <command> [args...]", file=sys.stderr)
        return 2
    if rest[0] == "prof":
        print("prof: refusing to profile a nested 'prof' run",
              file=sys.stderr)
        return 2

    profiler = obs_prof.SamplingProfiler(hz=args.hz).start()
    try:
        rc = main(rest)
    finally:
        profile = profiler.stop()

    out = Path(args.output)
    collapsed_path = out.with_suffix(".collapsed")
    svg_path = out.with_suffix(".svg")
    collapsed_path.write_text(profile.collapsed() + "\n", encoding="utf-8")
    svg_path.write_text(
        obs_prof.flamegraph_svg(
            profile, title=f"repro {' '.join(rest)} — {args.hz}Hz"
        ),
        encoding="utf-8",
    )
    print(
        f"prof: {profile.n_samples} samples over "
        f"{profile.duration_s:.2f}s at {args.hz}Hz -> "
        f"{collapsed_path}, {svg_path}"
    )
    return rc


def _cmd_correlate(args) -> int:
    pipeline = Pipeline(_source(args), args.field_i, cache=_cache(args))
    field_i = pipeline.measure_field(args.field_i)
    field_j = pipeline.measure_field(args.field_j)
    gci = global_correlation_index(pipeline.graph, field_i, field_j)
    print(f"GCI({args.field_i}, {args.field_j}) = {gci:.4f}")
    scores = outlier_score(pipeline.graph, field_i, field_j)
    top = np.argsort(-scores)[: args.count]
    print("top outlier vertices (most locally anti-correlated):")
    for v in top:
        print(f"  vertex {int(v)}: outlier_score {scores[v]:.3f}")
    return 0


def _cmd_stream(args) -> int:
    # Cheap flag/log validation first — measure + tree construction on
    # a large dataset can take minutes.  (--measure itself is already
    # validated at parse time against the registry's vertex measures.)
    if args.window is not None and args.window <= 0:
        raise SystemExit("--window must be a positive horizon")
    if args.frame_every < 1:
        raise SystemExit("--frame-every must be >= 1")
    try:
        batches = read_edit_log(args.log)
    except FileNotFoundError:
        raise SystemExit(f"edit log not found: {args.log}")
    except ValueError as exc:
        raise SystemExit(f"bad edit log {args.log}: {exc}")

    pipeline = StreamingPipeline(
        _source(args), args.measure,
        bins=args.bins,
        rebuild_threshold=args.rebuild_threshold,
        window=args.window,
        cache=_cache(args),
    )

    frames_dir: Optional[Path] = None
    if args.frames_dir:
        frames_dir = Path(args.frames_dir)
        frames_dir.mkdir(parents=True, exist_ok=True)

    n_edits = 0
    n_frames = 0
    last_t = float("-inf")
    for i, (when, batch) in enumerate(batches):
        n_edits += len(batch)
        try:
            if pipeline.window is not None:
                # Untimed commits fall back to the batch index, clamped
                # so a mix with earlier explicit timestamps never goes
                # backwards; explicit decreasing stamps still error.
                t = max(last_t, float(i)) if when is None else when
                pipeline.push(t, batch)
                last_t = t
            else:
                pipeline.apply(batch)
        except (IndexError, ValueError) as exc:
            raise SystemExit(f"edit batch {i} of {args.log}: {exc}")
        if frames_dir is not None and i % args.frame_every == 0:
            pipeline.render(
                path=frames_dir / f"frame_{i:05d}.png",
                resolution=args.resolution,
                width=args.width, height=args.height,
            )
            n_frames += 1

    stats = pipeline.stats
    print(
        f"replayed {stats['batches']} batches ({n_edits} edits) of "
        f"{args.log}: {stats['incremental']} incremental, "
        f"{stats['full_rebuilds']} full rebuilds, "
        f"{stats['replayed_vertices']} vertices replayed"
    )
    if frames_dir is not None:
        print(f"{n_frames} terrain frames -> {frames_dir}")
    print(
        f"final tree: {pipeline.stream.super_tree().n_nodes} super nodes "
        f"over {pipeline.stream.delta.n_edges} edges"
    )
    return 0


def _cmd_evolve(args) -> int:
    """Windowed terrain evolution: timeline -> tracker -> diff report."""
    import json as json_mod

    from .evolve import (
        DiffTiler,
        PeakTracker,
        event_f1,
        frames_from_log,
        frames_from_rows,
        peaks_from_tree,
    )
    from .graph.generators import dynamic_planted_partition

    if bool(args.log) == bool(args.synthetic):
        raise SystemExit("provide exactly one of --log or --synthetic")
    if not 0 < args.window < math.inf:
        raise SystemExit("--window must be a positive, finite horizon")
    if args.stride is not None and not 0 < args.stride < math.inf:
        raise SystemExit("--stride must be positive and finite")
    if args.origin is not None and not math.isfinite(args.origin):
        raise SystemExit("--origin must be finite")
    if args.resolution and args.resolution % args.tile_size != 0:
        raise SystemExit("--resolution must be a multiple of --tile-size")

    truth_events = None
    origin = args.origin
    if args.synthetic:
        log = dynamic_planted_partition(
            n_vertices=args.vertices,
            n_windows=args.windows,
            n_communities=args.communities,
            community_size=args.community_size,
            p_in=args.p_in,
            churn=args.churn,
            noise_per_window=args.noise,
            seed=args.seed,
        )
        truth_events = log.events
        if origin is None:
            origin = log.origin
        if args.write_log:
            log.write(args.write_log)
            print(f"synthetic temporal log -> {args.write_log} "
                  f"({len(log.rows)} edges, {log.n_windows} windows)")
        frames = frames_from_rows(
            log.rows, log.n_vertices,
            measure=args.measure, horizon=args.window,
            stride=args.stride, origin=origin, bins=args.bins,
        )
    else:
        if not Path(args.log).exists():
            raise SystemExit(f"temporal edge log not found: {args.log}")
        try:
            frames = frames_from_log(
                args.log,
                measure=args.measure, horizon=args.window,
                stride=args.stride, origin=origin, bins=args.bins,
            )
        except ValueError as exc:
            raise SystemExit(f"bad temporal log {args.log}: {exc}")

    tracker = PeakTracker(jaccard=args.jaccard, min_size=args.min_size)
    tiler = (
        DiffTiler(resolution=args.resolution, tile_size=args.tile_size)
        if args.resolution
        else None
    )
    report = {"windows": [], "events": []}
    try:
        for frame in frames:
            peaks = peaks_from_tree(
                frame.super, args.alpha, args.min_size, window=frame.index
            )
            events = tracker.observe(frame.index, peaks)
            row = dict(frame.describe())
            row["n_peaks"] = len(peaks)
            if tiler is not None:
                tiler.add_frame(frame)
                if frame.index > 0:
                    row["diff"] = tiler.summary(frame.index)
            report["windows"].append(row)
            report["events"].extend(e.describe() for e in events)
            line = (
                f"window {frame.index}: {frame.n_edges} edges, "
                f"{len(peaks)} peaks"
            )
            if events:
                line += " | " + ", ".join(
                    f"{e.kind}#{e.trajectory}" for e in events
                )
            print(line)
    except ValueError as exc:
        raise SystemExit(f"evolve failed: {exc}")
    report["tracker"] = tracker.stats()
    if truth_events is not None:
        report["event_f1"] = event_f1(tracker.events, truth_events)
        print(f"event F1 vs planted ground truth: "
              f"{report['event_f1']:.3f}")
    stats = report["tracker"]
    print(
        f"tracked {stats['trajectories']} trajectories over "
        f"{len(report['windows'])} windows ({stats['live']} live); "
        "events: "
        + ", ".join(f"{k}={v}" for k, v in sorted(stats["events"].items()))
    )
    if args.output:
        Path(args.output).write_text(
            json_mod.dumps(report, indent=2, sort_keys=True)
        )
        print(f"report -> {args.output}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .graph import datasets as dataset_registry
    from .graph.io import iter_edge_chunks, iter_temporal_edge_chunks
    from .serve import (
        EvolveSession,
        HTTPServer,
        ServeApp,
        StageRunner,
        StreamSession,
    )

    # Fail fast on flags the lazy pyramid/runner would otherwise only
    # reject on the first request (as a 500) or with a raw traceback.
    if args.tile_size < 8 or args.tile_size % 2 != 0:
        raise SystemExit("--tile-size must be an even integer >= 8")
    if args.levels < 1:
        raise SystemExit("--levels must be >= 1")
    if args.workers < 0:
        raise SystemExit("--workers must be >= 0")

    measures = [m.strip() for m in args.measures.split(",") if m.strip()]
    if not measures:
        raise SystemExit("--measures must name at least one measure")
    for measure in measures:
        _measure_arg_exit(measure)

    cache = _cache(args)
    if args.cache_memory_mb is not None:
        if args.cache_memory_mb < 0:
            raise SystemExit("--cache-memory-mb must be >= 0")
        cache.max_memory_bytes = args.cache_memory_mb * (1 << 20)
    if args.cache_disk_mb is not None and args.cache_disk_mb < 0:
        raise SystemExit("--cache-disk-mb must be >= 0")
    if args.max_inflight < 0:
        raise SystemExit("--max-inflight must be >= 0")
    if args.max_sse_sessions < 0:
        raise SystemExit("--max-sse-sessions must be >= 0")
    if args.request_timeout < 0:
        raise SystemExit("--request-timeout must be >= 0")
    if args.drain_grace < 0:
        raise SystemExit("--drain-grace must be >= 0")
    runner = StageRunner(workers=args.workers, max_inflight=args.max_inflight)
    app = ServeApp(
        cache=cache,
        runner=runner,
        tile_size=args.tile_size,
        levels=args.levels,
        bins=args.bins,
        max_disk_bytes=(
            None if args.cache_disk_mb is None
            else args.cache_disk_mb * (1 << 20)
        ),
        request_timeout=args.request_timeout or None,
    )

    names = [n.strip() for n in args.datasets.split(",") if n.strip()]
    if names == ["all"]:
        names = dataset_registry.names()
    for name in names:
        if name not in dataset_registry.names():
            raise SystemExit(
                f"unknown dataset {name!r}; available: "
                f"{', '.join(dataset_registry.names())} (or 'all')"
            )
        app.add_dataset(name, measures)
    for spec in args.edge_list or []:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise SystemExit(f"--edge-list expects NAME=PATH, got {spec!r}")
        if not Path(path).exists():
            raise SystemExit(f"edge list not found: {path}")
        # Pyramids build lazily, on the first request; read the file
        # once now so a malformed line fails the boot (main() prints
        # the EdgeListError), not every tile with a 500.
        for _ in iter_edge_chunks(path):
            pass
        app.add_dataset(name, measures, edge_list=path)
    if not app.datasets:
        raise SystemExit("nothing to serve: no datasets or edge lists")

    for spec in args.stream_log or []:
        name, sep, rest = spec.partition("=")
        parts = rest.split(":", 2)
        if not sep or len(parts) != 3 or not all(parts):
            raise SystemExit(
                "--stream-log expects NAME=DATASET:MEASURE:LOGPATH, "
                f"got {spec!r}"
            )
        ds, measure, log_path = parts
        entry = app.datasets.get(ds)
        if entry is None:
            raise SystemExit(
                f"--stream-log {name}: dataset {ds!r} is not served"
            )
        _vertex_measure_arg_exit(measure)
        if not Path(log_path).exists():
            raise SystemExit(f"edit log not found: {log_path}")
        app.add_stream_session(StreamSession(
            name, entry.source, measure, log_path,
            bins=args.bins,
            tile_size=args.tile_size, levels=args.levels,
        ))

    for spec in args.evolve_log or []:
        name, sep, rest = spec.partition("=")
        parts = rest.split(":", 2)
        if not sep or len(parts) != 3 or not all(parts):
            raise SystemExit(
                "--evolve-log expects NAME=MEASURE:WINDOW:LOGPATH, "
                f"got {spec!r}"
            )
        measure, window, log_path = parts
        _vertex_measure_arg_exit(measure)
        try:
            horizon = float(window)
        except ValueError:
            horizon = -1.0
        if not 0 < horizon < math.inf:
            raise SystemExit(
                f"--evolve-log {name}: WINDOW must be a positive, "
                f"finite horizon, got {window!r}"
            )
        if not Path(log_path).exists():
            raise SystemExit(f"temporal edge log not found: {log_path}")
        # The run is built lazily, on the first /evolve/* request; read
        # the log once now so a malformed line fails the boot, not
        # every request with a 500.
        try:
            for _ in iter_temporal_edge_chunks(log_path):
                pass
        except ValueError as exc:
            raise SystemExit(f"bad temporal log {log_path}: {exc}")
        app.add_evolve_session(EvolveSession(
            name, log_path, measure=measure, horizon=horizon,
            bins=args.bins, tile_size=args.tile_size,
        ))

    async def _run() -> None:
        import signal

        server = HTTPServer(
            app.router(), args.host, args.port,
            max_sse_sessions=args.max_sse_sessions,
        )
        # /debug/slow exemplars ride the post-response hook.
        server.request_observer = app.observe_request
        await server.start()
        resolution = args.tile_size * 2 ** (args.levels - 1)
        print(
            f"repro serve: http://{args.host}:{server.port} — "
            f"{len(app.datasets)} dataset(s) x {len(measures)} measure(s), "
            f"{args.levels}-level pyramid at {resolution}px "
            f"({args.workers or 'thread'}-worker builds)",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        sigterm = asyncio.Event()
        try:
            loop.add_signal_handler(signal.SIGTERM, sigterm.set)
        except (NotImplementedError, RuntimeError):
            pass  # no signal support on this loop/platform
        serving = asyncio.ensure_future(server.serve_forever())
        stopping = asyncio.ensure_future(sigterm.wait())
        try:
            await asyncio.wait(
                {serving, stopping}, return_when=asyncio.FIRST_COMPLETED
            )
            if sigterm.is_set():
                print(
                    f"repro serve: SIGTERM — draining "
                    f"(grace {args.drain_grace:g}s)",
                    flush=True,
                )
                await server.drain(grace=args.drain_grace)
        finally:
            for task in (serving, stopping):
                task.cancel()
            await asyncio.gather(serving, stopping, return_exceptions=True)
            await server.aclose()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("repro serve: shutting down")
    finally:
        runner.shutdown()
    return 0


def _measure_arg_exit(value: str) -> str:
    """Like :func:`_measure_arg`, but for post-parse validation."""
    try:
        return _measure_arg(value)
    except argparse.ArgumentTypeError as exc:
        raise SystemExit(f"--measures: {exc}")


def _vertex_measure_arg_exit(value: str) -> str:
    try:
        return _vertex_measure_arg(value)
    except argparse.ArgumentTypeError as exc:
        raise SystemExit(f"--stream-log: {exc}")


def build_parser() -> argparse.ArgumentParser:
    """The assembled argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scalar fields on graphs: terrains, peaks, correlation.",
    )
    parser.add_argument(
        "--version", action="version", version=version_string(),
        help="print the installed repro version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    terrain = sub.add_parser("terrain", help="render a terrain image")
    _add_common(terrain)
    terrain.add_argument("-o", "--output", default="terrain.png")
    terrain.add_argument("--azimuth", type=float, default=35.0)
    terrain.add_argument("--elevation", type=float, default=38.0)
    terrain.add_argument("--zoom", type=_zoom_arg, default=1.0)
    terrain.add_argument("--resolution", type=_resolution_arg, default=160)
    terrain.add_argument("--width", type=_positive_int_arg, default=640)
    terrain.add_argument("--height", type=_positive_int_arg, default=480)
    terrain.set_defaults(func=_cmd_terrain)

    peaks = sub.add_parser("peaks", help="list highest disconnected peaks")
    _add_common(peaks)
    peaks.add_argument("--count", type=int, default=3)
    peaks.set_defaults(func=_cmd_peaks)

    treemap = sub.add_parser("treemap", help="write the 2D treemap SVG")
    _add_common(treemap)
    treemap.add_argument("-o", "--output", default="treemap.svg")
    treemap.add_argument("--width", type=int, default=640)
    treemap.set_defaults(func=_cmd_treemap)

    profile = sub.add_parser("profile", help="write the 1D profile SVG")
    _add_common(profile)
    profile.add_argument("-o", "--output", default="profile.svg")
    profile.add_argument("--width", type=int, default=720)
    profile.add_argument("--height", type=int, default=240)
    profile.set_defaults(func=_cmd_profile)

    prof = sub.add_parser(
        "prof",
        help="profile another repro command, write .collapsed + "
             "flamegraph .svg",
        description=(
            "Run any other repro command under the stdlib sampling "
            "profiler: repro prof -o run --hz 97 -- terrain --dataset "
            "grqc --measure kcore -o t.png.  Writes run.collapsed "
            "(collapsed-stack text, flamegraph.pl compatible) and "
            "run.svg (self-contained flamegraph)."
        ),
    )
    prof.add_argument(
        "-o", "--output", default="profile",
        help="output basename (writes <name>.collapsed and <name>.svg)",
    )
    prof.add_argument(
        "--hz", type=int, default=97,
        help="sampling frequency (default: 97)",
    )
    prof.add_argument(
        "argv", nargs=argparse.REMAINDER,
        help="the command to profile, after an optional '--'",
    )
    prof.set_defaults(func=_cmd_prof)

    correlate = sub.add_parser(
        "correlate", help="GCI and outliers of two vertex measures"
    )
    _add_common(correlate)
    correlate.add_argument("field_i", type=_vertex_measure_arg)
    correlate.add_argument("field_j", type=_vertex_measure_arg)
    correlate.add_argument("--count", type=int, default=5)
    correlate.set_defaults(func=_cmd_correlate)

    stream = sub.add_parser(
        "stream",
        help="replay a JSONL edit log incrementally, emit terrain frames",
    )
    _add_common(stream, measure_type=_vertex_measure_arg)
    stream.add_argument(
        "--log", required=True, help="JSONL edit log (see repro.stream.editlog)"
    )
    stream.add_argument(
        "--frames-dir", default=None,
        help="directory for terrain frames (omit to skip rendering)",
    )
    stream.add_argument(
        "--frame-every", type=int, default=1,
        help="render every Nth batch",
    )
    stream.add_argument(
        "--window", type=float, default=None,
        help="sliding-window horizon W: edits expire after W time units",
    )
    stream.add_argument(
        "--rebuild-threshold", type=float, default=0.5,
        help="dirty-vertex fraction beyond which a full rebuild is used",
    )
    stream.add_argument("--resolution", type=_resolution_arg, default=120)
    stream.add_argument("--width", type=_positive_int_arg, default=480)
    stream.add_argument("--height", type=_positive_int_arg, default=360)
    stream.set_defaults(func=_cmd_stream)

    evolve = sub.add_parser(
        "evolve",
        help="windowed terrain evolution over a timestamped edge log",
        description=(
            "Slice a timestamped 'src dst ts [w]' edge log into "
            "tumbling (or sliding) windows, build each window's "
            "terrain from scratch, track peaks across windows "
            "into trajectories with lifecycle events "
            "(birth/growth/shrink/merge/split/death), and summarize "
            "the signed terrain diff between consecutive windows.  "
            "--synthetic swaps the log for the planted "
            "dynamic-community generator and scores the tracked "
            "events against its ground truth (event F1)."
        ),
    )
    evolve.add_argument(
        "--log", default=None,
        help="timestamped edge list ('src dst ts [w]' per line)",
    )
    evolve.add_argument(
        "--synthetic", action="store_true",
        help="use the planted dynamic-community generator instead of "
             "--log, and score events against its ground truth",
    )
    evolve.add_argument(
        "--measure", default="degree", type=_vertex_measure_arg,
        help="vertex measure recomputed per window; one of: "
             + ", ".join(registry.measure_names(kind="vertex")),
    )
    evolve.add_argument(
        "--window", type=float, default=1.0,
        help="window horizon in time units (default: %(default)s)",
    )
    evolve.add_argument(
        "--stride", type=float, default=None,
        help="window stride; defaults to the horizon (tumbling)",
    )
    evolve.add_argument(
        "--origin", type=float, default=None,
        help="timeline origin; defaults to just below the first "
             "timestamp (0.0 for --synthetic)",
    )
    evolve.add_argument(
        "--alpha", type=float, default=None,
        help="peak cut level (default: per-window midpoint)",
    )
    evolve.add_argument(
        "--min-size", type=int, default=3,
        help="ignore peaks smaller than this (default: %(default)s)",
    )
    evolve.add_argument(
        "--jaccard", type=float, default=0.3,
        help="member-set Jaccard threshold for matching peaks across "
             "windows (default: %(default)s)",
    )
    evolve.add_argument(
        "--resolution", type=int, default=128,
        help="diff heightfield resolution; 0 skips terrain diffs "
             "(default: %(default)s)",
    )
    evolve.add_argument(
        "--tile-size", type=int, default=64,
        help="diff tile edge length (default: %(default)s)",
    )
    evolve.add_argument(
        "--bins", type=int, default=None,
        help="simplify display trees to ~N scalar levels",
    )
    evolve.add_argument(
        "--vertices", type=int, default=96,
        help="--synthetic: vertex count (default: %(default)s)",
    )
    evolve.add_argument(
        "--windows", type=int, default=8,
        help="--synthetic: window count (default: %(default)s)",
    )
    evolve.add_argument(
        "--communities", type=int, default=3,
        help="--synthetic: planted community count (default: %(default)s)",
    )
    evolve.add_argument(
        "--community-size", type=int, default=14,
        help="--synthetic: members per community (default: %(default)s)",
    )
    evolve.add_argument(
        "--p-in", type=float, default=0.6,
        help="--synthetic: intra-community edge probability "
             "(default: %(default)s)",
    )
    evolve.add_argument(
        "--churn", type=float, default=0.2,
        help="--synthetic: per-window edge churn fraction "
             "(default: %(default)s)",
    )
    evolve.add_argument(
        "--noise", type=int, default=6,
        help="--synthetic: background noise edges per window "
             "(default: %(default)s)",
    )
    evolve.add_argument(
        "--seed", type=int, default=0,
        help="--synthetic: RNG seed (default: %(default)s)",
    )
    evolve.add_argument(
        "--write-log", default=None, metavar="PATH",
        help="--synthetic: also write the generated temporal edge log",
    )
    evolve.add_argument(
        "-o", "--output", default=None,
        help="write the full window/event/diff report as JSON",
    )
    _add_obs(evolve)
    _add_resil(evolve)
    evolve.set_defaults(func=_cmd_evolve)

    serve = sub.add_parser(
        "serve",
        help="serve terrain tiles, peaks and linked displays over HTTP",
        description=(
            "Boot the concurrent terrain server: an LOD tile pyramid "
            "(strong ETags, 304 revalidation), peak/hit-test/treemap/"
            "profile endpoints and SSE stream replay, all built lazily "
            "through the cached engine pipeline — concurrent cold "
            "requests for one artifact coalesce to a single build."
        ),
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: %(default)s)")
    serve.add_argument("--port", type=int, default=8321,
                       help="TCP port; 0 picks an ephemeral port "
                            "(default: %(default)s)")
    serve.add_argument(
        "--datasets", default="grqc",
        help="comma-separated registered dataset names, or 'all' "
             "(default: %(default)s)",
    )
    serve.add_argument(
        "--measures", default="kcore",
        help="comma-separated measures to serve each dataset under "
             "(default: %(default)s)",
    )
    serve.add_argument(
        "--edge-list", action="append", metavar="NAME=PATH",
        help="additionally serve a SNAP-style edge-list file under NAME "
             "(repeatable)",
    )
    serve.add_argument(
        "--bins", type=int, default=None,
        help="simplify display trees to ~N scalar levels",
    )
    serve.add_argument(
        "--tile-size", type=int, default=64,
        help="tile edge length in cells (default: %(default)s)",
    )
    serve.add_argument(
        "--levels", type=int, default=3,
        help="LOD pyramid depth; base resolution is "
             "tile-size * 2^(levels-1) (default: %(default)s)",
    )
    serve.add_argument(
        "--workers", type=int, default=0,
        help="size of the ProcessPoolExecutor for pipeline builds; "
             "0 = bounded in-process threads (default: %(default)s)",
    )
    serve.add_argument(
        "--cache-dir", default=None,
        help="persist pipeline artifacts here (default: $REPRO_CACHE_DIR "
             "if set, else in-memory only)",
    )
    serve.add_argument(
        "--cache-memory-mb", type=int, default=None, metavar="MB",
        help="LRU-bound the server's cache memory (stage artifacts plus "
             "the encoded-tile memo share this budget; default: unbounded)",
    )
    serve.add_argument(
        "--stream-log", action="append", metavar="NAME=DATASET:MEASURE:PATH",
        help="register an SSE replay session at /stream/NAME over a "
             "JSONL edit log (repeatable)",
    )
    serve.add_argument(
        "--evolve-log", action="append", metavar="NAME=MEASURE:WINDOW:PATH",
        help="register a temporal evolution run at /evolve/* (windows, "
             "peak trajectories, diff tiles) and /stream/NAME over a "
             "timestamped 'src dst ts [w]' edge log (repeatable)",
    )
    serve.add_argument(
        "--cache-disk-mb", type=int, default=None, metavar="MB",
        help="prune the on-disk artifact cache to this budget after "
             "each cold build (default: unbounded)",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=30.0, metavar="SECONDS",
        help="per-request build deadline; expired builds answer 504 "
             "(0 disables; default: %(default)s)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=0, metavar="N",
        help="admission control: cap concurrent cold builds at N and "
             "answer 429 + Retry-After beyond it, with a slice "
             "reserved for interactive hit/peak queries "
             "(0 = unbounded; default: %(default)s)",
    )
    serve.add_argument(
        "--max-sse-sessions", type=int, default=0, metavar="N",
        help="cap concurrent SSE replay sessions at N; extra clients "
             "get 429 + Retry-After (0 = unbounded; default: %(default)s)",
    )
    serve.add_argument(
        "--drain-grace", type=float, default=10.0, metavar="SECONDS",
        help="SIGTERM drain window: stop accepting, finish in-flight "
             "requests, end SSE streams with a terminal 'shutdown' "
             "event, then exit (default: %(default)s)",
    )
    _add_obs(serve)
    _add_resil(serve)
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "faults", None):
        import os

        try:
            resil_faults.configure(args.faults)
        except ValueError as exc:
            raise SystemExit(f"--faults: {exc}")
        # Exported so pool workers inherit the same schedule (each
        # process keeps its own pass counters).
        os.environ[resil_faults.ENV_VAR] = args.faults
    exporter = None
    if getattr(args, "trace", None):
        exporter = obs_trace.JSONLExporter(args.trace)
        obs_trace.add_exporter(exporter)
        obs_trace.set_enabled(True)
    try:
        with obs_trace.span(f"cli.{args.command}"):
            return args.func(args)
    except EdgeListError as exc:
        # str(exc) is "file:line: reason: 'line'" — one line.
        raise SystemExit(f"bad edge list {exc}") from None
    finally:
        if exporter is not None:
            obs_trace.set_enabled(False)
            obs_trace.remove_exporter(exporter)
            exporter.close()
            print(f"trace -> {args.trace}", file=sys.stderr)
        if getattr(args, "metrics", False):
            print(obs_metrics.REGISTRY.render(), file=sys.stderr, end="")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
