"""Windowed terrain evolution over timestamped edge streams.

The temporal subsystem the ROADMAP's community-evolution item calls
for, layered on :mod:`repro.stream` and served by :mod:`repro.serve`:

* :mod:`~repro.evolve.timeline` — timestamped edge streams → one
  terrain frame per window, each exactly the last-``horizon`` edge
  set: tumbling windows hand the maintained tree each transition as
  arrays, overlapping ones go through
  :class:`~repro.stream.window.SlidingWindow` edit batches;
* :mod:`~repro.evolve.tracker` — Jaccard matching of peaks across
  consecutive windows into trajectories with
  birth/growth/shrink/merge/split/death lifecycle events, scored by
  :func:`~repro.evolve.tracker.event_f1` against planted ground truth
  (:func:`repro.graph.generators.dynamic_planted_partition`);
* :mod:`~repro.evolve.diff` — signed terrain-diff heightfields
  between windows, cached as first-class tile artifacts.
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
