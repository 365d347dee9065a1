"""``evolve``: the ``repro evolve --log`` command at its defaults.

One pass sizes and sorts the temporal log, maintains one streaming
tree across its tumbling windows (``frames_from_log``, measure
``degree``), cuts peaks per window, tracks them, and rasterizes the
diff summary of each window against the previous one (resolution 128,
64-cell tiles).  A window's time is one loop iteration: the frame
iterator's ``next()`` plus peaks, tracking and the diff.

The traced pass wraps the public functions the timeline calls itself
(``temporal_log_stats``, ``iter_temporal_edges_sorted``,
``registry.compute``, ``StreamingScalarTree.apply`` and
``.display_tree``, and the layout/rasterize calls of
``DiffTiler.add_frame``) for the duration of the pass.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from repro.core import ScalarGraph, build_vertex_tree
from repro.engine import registry
from repro.evolve import DiffTiler, PeakTracker, diff, timeline, tracker
from repro.stream import StreamingScalarTree

import common
import inputs
from common import clock, median

#: `repro evolve` defaults.
HORIZON, ORIGIN, MIN_SIZE, JACCARD, RESOLUTION, TILE = (
    1.0, 0.0, 3, 0.3, 128, 64,
)
N_WINDOWS = inputs.SIZES["evolve"]["windows"]


def one_pass(path: str, tmp: str, check_window: int, rec=None, probe=None):
    """Run the whole log; return (wall, window times, window rows, the
    check window's (graph, scalars, parent), output digest, the probe's
    factor over the steady windows >= 1)."""
    span = rec.span if rec is not None else (lambda name: nullcontext())
    t0 = clock()
    frames = timeline.frames_from_log(
        path, measure="degree", horizon=HORIZON, origin=ORIGIN,
        scratch_dir=tmp,
    )
    peak_tracker = PeakTracker(jaccard=JACCARD, min_size=MIN_SIZE)
    tiler = DiffTiler(resolution=RESOLUTION, tile_size=TILE)
    windows, rows, events, kept = [], [], [], None
    steady = None
    last = clock()
    while True:
        with span("evolve.window_s"):
            frame = next(frames, None)
        if frame is None:
            break
        with span("evolve.peaks_s"):
            peaks = tracker.peaks_from_tree(
                frame.super, None, MIN_SIZE, window=frame.index
            )
        with span("evolve.track_s"):
            found = peak_tracker.observe(frame.index, peaks)
        tiler.add_frame(frame)
        row = dict(frame.stream_stats, **frame.describe(), n_peaks=len(peaks))
        if frame.index > 0:
            with span("evolve.diff_s"):
                row["diff"] = tiler.summary(frame.index)
        if frame.index == check_window:
            kept = (frame.graph, frame.scalars, frame.tree.parent.copy())
        rows.append(row)
        events.extend(e.describe() for e in found)
        now = clock()
        windows.append(now - last)
        last = now
        if frame.index == 0 and probe is not None:
            steady = probe.mark()
    wall = clock() - t0
    factor = probe.factor(steady) if probe is not None else 1.0
    return wall, windows, rows, kept, common.digest(rows, events), factor


def install(rec: common.Recorder) -> None:
    rec.wrap(timeline, "temporal_log_stats", "graph.temporal_read_s")
    rec.wrap(timeline, "iter_temporal_edges_sorted", "graph.temporal_read_s")
    rec.wrap(registry, "compute", lambda name, *a, **k: f"measures.{name}_s")
    rec.wrap(StreamingScalarTree, "apply", "stream.apply_s")
    rec.wrap(StreamingScalarTree, "display_tree", "evolve.display_tree_s")
    rec.wrap(diff, "layout_tree", "terrain.layout_s")
    rec.wrap(diff, "rasterize", "terrain.rasterize_s")


def run(spec, probe: common.SpeedProbe) -> dict:
    path, tmp = spec["files"]["log"], spec["tmp_dir"]
    rec = common.Recorder()
    state = {"pass": 0}

    def untraced():
        # Seed-chosen window, rotated per pass, checked against a
        # from-scratch build after the pass.
        state["pass"] += 1
        check = 1 + (spec["seed"] + state["pass"]) % (N_WINDOWS - 1)
        return (check,) + one_pass(path, tmp, check, probe=probe)

    def traced():
        install(rec)
        try:
            return (0,) + one_pass(path, tmp, 0, rec)
        finally:
            rec.restore()

    warm, plain, traced_passes, factors = common.run_passes(
        spec, untraced, traced, probe
    )
    checks = common.Checks()
    reference = warm[5]
    for check, _, _, _, kept, digest, _ in [warm] + plain:
        checks.expect(digest == reference,
                      "windows/events changed between passes")
        graph, scalars, parent = kept
        scratch = build_vertex_tree(ScalarGraph(graph, scalars))
        checks.expect(np.array_equal(scratch.parent, parent),
                      f"window {check}: maintained tree != scratch build")
    for *_, digest, _ in traced_passes:
        checks.expect(digest == reference, "traced pass changed windows/events")

    def metrics(scaled: bool) -> dict:
        # Whole passes are scaled by the factor over the pass, steady
        # windows by the factor over the steady windows alone.
        scale = factors if scaled else [1.0] * len(plain)
        steady = [p[6] if scaled else 1.0 for p in plain]
        return {
            "wall_s": median(p[1] / f for p, f in zip(plain, scale)),
            "op_ms": median(1e3 * float(np.mean(p[2][1:])) / f
                            for p, f in zip(plain, steady)),
            "op_tail_ms": median(1e3 * max(p[2][1:]) / f
                                 for p, f in zip(plain, steady)),
        }

    rows = warm[3]
    stats = rows[-1]
    report = {
        "passes": len(plain),
        "windows_sha256_16": reference,
        "shape": {
            "windows": len(rows),
            "edges_per_window": float(np.mean([r["n_edges"] for r in rows])),
            "churn_frac": float(np.mean(
                [r["n_new_edges"] / r["n_edges"] for r in rows[1:]])),
            "incremental_share": stats["incremental"] / (len(rows) - 1),
        },
    }
    if not spec["trace"]:
        report["unscaled"] = metrics(False)
        return checks.result(metrics(True), report)

    traced_walls = [p[1] for p in traced_passes]
    layers = {name: total / len(traced_passes)
              for name, total in rec.totals.items()}
    layers["stream.incremental"] = stats["incremental"]
    layers["stream.full_rebuilds"] = stats["full_rebuilds"]
    layers["stream.replayed_vertices"] = stats["replayed_vertices"]
    layers["stream.incremental_frac"] = stats["incremental"] / stats["batches"]
    layers["core.super_nodes"] = float(np.mean([r["super_nodes"] for r in rows]))
    layers["remainder_frac"] = 1.0 - rec.top_s / sum(traced_walls)
    layers["trace_overhead_frac"] = (
        median(traced_walls) / metrics(False)["wall_s"] - 1.0
    )
    return checks.result(layers, report)
