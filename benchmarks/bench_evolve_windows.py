"""Per-window cost: the timeline against a per-window re-slicing pipeline.

:class:`repro.evolve.Timeline` reads a tumbling-window edge stream once,
in order: each frame's rows become the window's canonical pair keys,
and the window is built from them (CSR, measure, Algorithm 1, super
tree).  The alternative a dashboard would otherwise run is a pipeline
that, for every window, slices that window's rows out of the whole log
and then builds the CSR, recomputes the measure and runs Algorithm 1 +
the super-tree pass.  Both build every window from scratch; the
timeline saves the per-window pass over the whole log.

The workload is the regime temporal terrains are built for: a stable
high-degree core (the mountain range, identical in every window) plus
a low-degree fringe whose edges churn window to window (≲2% of the
window's edges; the scenario asserts ≤5%).

Frame 0 is reported separately; the headline numbers — and the
assertion — are the steady-state per-window medians over frames 1+.
Unlike the generic stream benchmark, the timing assertion here also
holds under ``REPRO_BENCH_TINY=1``: the tiny workload keeps ≥10k edges
per window.

Every frame of the timed timeline run is also cross-checked
node-identical (vertex tree, display tree, scalars) against the
pipeline's build of that window, so the speedup is never bought with
drift.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import List, Tuple

import numpy as np

from repro.core import ScalarGraph, build_super_tree, build_vertex_tree
from repro.engine import registry
from repro.evolve import Timeline
from repro.graph.builders import from_edge_array

_TINY = os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0")
_N_CORE = 2000 if _TINY else 6000
_DEG_CORE = 10 if _TINY else 12
_N_FRINGE = 120 if _TINY else 240
_N_WINDOWS = 10 if _TINY else 12
_ROUNDS = 3
_SEED = 7


def _temporal_scenario(seed: int) -> Tuple[int, np.ndarray]:
    """Stable-core / churning-fringe temporal log, one window per unit.

    Core edges repeat in every window; fringe vertices re-pair among
    themselves each window (both endpoints stay low-degree).
    """
    rng = np.random.default_rng(seed)
    n = _N_CORE + _N_FRINGE
    m_core = _N_CORE * _DEG_CORE // 2
    cu = rng.integers(0, _N_CORE, m_core * 2)
    cv = rng.integers(0, _N_CORE, m_core * 2)
    keep = cu != cv
    core = np.unique(
        np.column_stack(
            [np.minimum(cu, cv)[keep], np.maximum(cu, cv)[keep]]
        ),
        axis=0,
    )[:m_core]
    rows: List[Tuple[float, float, float, float]] = []
    for w in range(_N_WINDOWS):
        ts = w + 0.5
        for u, v in core:
            rows.append((float(u), float(v), ts, 1.0))
        pw = rng.permutation(_N_FRINGE)
        for i in range(0, _N_FRINGE - 1, 2):
            a = _N_CORE + int(pw[i])
            b = _N_CORE + int(pw[i + 1])
            rows.append((float(min(a, b)), float(max(a, b)), ts, 1.0))
    arr = np.array(rows, dtype=np.float64)
    return n, arr[np.argsort(arr[:, 2], kind="stable")]


def _window_edges(rows: np.ndarray, frame) -> np.ndarray:
    ts = rows[:, 2]
    lo = (ts >= frame.t_start) if frame.index == 0 else (ts > frame.t_start)
    live = rows[lo & (ts <= frame.t_end)][:, :2].astype(np.int64)
    u = np.minimum(live[:, 0], live[:, 1])
    v = np.maximum(live[:, 0], live[:, 1])
    keep = u != v
    return np.unique(np.column_stack([u[keep], v[keep]]), axis=0)


def _timeline_pass(n: int, rows: np.ndarray) -> Tuple[List[float], list]:
    """Per-frame wall times of one timeline run."""
    timeline = Timeline(n, horizon=1.0, origin=0.0)
    per: List[float] = []
    frames = []
    last = time.perf_counter()
    for frame in timeline.frames([rows]):
        now = time.perf_counter()
        per.append(now - last)
        last = now
        frames.append(frame)
    return per, frames


def _pipeline_pass(
    n: int, rows: np.ndarray, frames, check: bool
) -> List[float]:
    """Per-frame wall times of the re-slicing pipeline: each window's
    rows sliced out of the whole log, then built from scratch.

    With ``check=True`` this pass doubles as the node-identity
    cross-check against the timeline's frames (asserts outside the
    timed region).
    """
    per: List[float] = []
    for frame in frames:
        t0 = time.perf_counter()
        edges = _window_edges(rows, frame)
        graph = from_edge_array(edges, n_vertices=n)
        scalars = registry.compute("degree", graph)
        tree = build_vertex_tree(ScalarGraph(graph, scalars))
        sup = build_super_tree(tree)
        per.append(time.perf_counter() - t0)
        if check:
            assert np.array_equal(frame.scalars, scalars)
            assert np.array_equal(frame.tree.parent, tree.parent)
            assert np.array_equal(frame.super.parent, sup.parent)
            assert np.array_equal(frame.super.scalars, sup.scalars)
    return per


def _steady(per_frame: List[float]) -> float:
    """Median steady-state per-window seconds (frame 0 excluded)."""
    return statistics.median(per_frame[1:])


def test_evolve_timeline_speedup(report, report_json):
    n, rows = _temporal_scenario(_SEED)

    # One un-timed pass for the node-identity cross-check and the
    # workload shape numbers.
    _, frames = _timeline_pass(n, rows)
    _pipeline_pass(n, rows, frames, check=True)
    m_window = frames[1].n_edges
    churn = statistics.median(f.n_new_edges for f in frames[1:])
    churn_frac = churn / m_window
    assert churn_frac <= 0.05, "scenario drifted out of the ≤5% envelope"

    # Timed passes: best-of-R medians, both pipelines interleaved.
    timeline_runs, pipeline_runs = [], []
    timeline_first = pipeline_first = float("inf")
    for _ in range(_ROUNDS):
        per_timeline, run_frames = _timeline_pass(n, rows)
        per_pipeline = _pipeline_pass(n, rows, run_frames, check=False)
        timeline_runs.append(_steady(per_timeline))
        pipeline_runs.append(_steady(per_pipeline))
        timeline_first = min(timeline_first, per_timeline[0])
        pipeline_first = min(pipeline_first, per_pipeline[0])
    t_timeline = min(timeline_runs)
    t_pipeline = min(pipeline_runs)
    speedup = t_pipeline / t_timeline

    report(
        "evolve_windows",
        "\n".join([
            f"tumbling windows on stable-core/churning-fringe log: "
            f"{n} vertices, {m_window} edges/window, "
            f"{_N_WINDOWS} windows, churn {churn_frac:.1%}"
            f"{' [tiny]' if _TINY else ''}",
            f"{'pass':>24}{'frame0(ms)':>12}{'steady(ms)':>12}",
            f"{'re-slicing pipeline':>24}{1e3 * pipeline_first:>12.2f}"
            f"{1e3 * t_pipeline:>12.2f}",
            f"{'timeline':>24}{1e3 * timeline_first:>12.2f}"
            f"{1e3 * t_timeline:>12.2f}",
            f"steady-state speedup: {speedup:.2f}x",
        ]),
    )
    report_json(
        "evolve_windows",
        {
            "tiny": _TINY,
            "n_vertices": n,
            "edges_per_window": m_window,
            "n_windows": _N_WINDOWS,
            "churn_fraction": churn_frac,
            "frame0_ms": {
                "pipeline": 1e3 * pipeline_first,
                "timeline": 1e3 * timeline_first,
            },
            "steady_ms": {
                "pipeline": 1e3 * t_pipeline,
                "timeline": 1e3 * t_timeline,
            },
            "steady_speedup": speedup,
        },
    )

    # The contract this benchmark certifies — and unlike the generic
    # stream benchmark, it must hold in tiny mode too.
    assert speedup > 1.0, (
        f"the timeline ({1e3 * t_timeline:.2f}ms/window) must beat the "
        f"re-slicing pipeline ({1e3 * t_pipeline:.2f}ms/window) "
        f"at {churn_frac:.1%} churn"
    )
