"""Windowed terrain evolution over timestamped edge streams.

The temporal subsystem: the paper's static construction run once per
window, and served by :mod:`repro.serve`:

* :mod:`~repro.evolve.timeline` — timestamped edge streams → one
  terrain frame per window, each built from scratch from exactly the
  last-``horizon`` edge set (tumbling windows: the frame's own edges;
  overlapping ones: every edge touched within the horizon);
* :mod:`~repro.evolve.tracker` — Jaccard matching of peaks across
  consecutive windows into trajectories with
  birth/growth/shrink/merge/split/death lifecycle events, scored by
  :func:`~repro.evolve.tracker.event_f1` against planted ground truth
  (:func:`repro.graph.generators.dynamic_planted_partition`);
* :mod:`~repro.evolve.diff` — signed terrain-diff heightfields
  between windows, and the tiles cut from them.
"""

from .diff import DiffTiler, diff_heightfield
from .timeline import (
    Timeline,
    WindowFrame,
    frames_from_log,
    frames_from_rows,
    temporal_log_stats,
)
from .tracker import (
    PeakSnapshot,
    PeakTracker,
    TrackEvent,
    Trajectory,
    auto_alpha,
    event_f1,
    peaks_from_tree,
)

__all__ = [
    "Timeline",
    "WindowFrame",
    "frames_from_log",
    "frames_from_rows",
    "temporal_log_stats",
    "PeakSnapshot",
    "PeakTracker",
    "TrackEvent",
    "Trajectory",
    "auto_alpha",
    "event_f1",
    "peaks_from_tree",
    "DiffTiler",
    "diff_heightfield",
]
