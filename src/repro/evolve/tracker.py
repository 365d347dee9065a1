"""Peak lifecycle tracking across window frames.

The tracker follows the classic dynamic-community matching recipe
(Greene et al.): cut each frame's terrain at a height ``alpha``
(every peak is one maximal α-connected component,
:func:`repro.terrain.peaks.peaks_at`), then match the current frame's
peaks against the live trajectories' last member sets by Jaccard
similarity.  A similarity above ``jaccard`` is a *match*; matches are
resolved into lifecycle events:

* one peak ↔ one trajectory — continuation (plus a ``growth`` /
  ``shrink`` event when the size moved by more than
  ``growth_threshold``);
* one peak ↔ several trajectories — ``merge``: the best-matching
  trajectory continues, the others end absorbed into it;
* several peaks ↔ one trajectory — ``split``: the best-matching peak
  continues the trajectory, the others spawn new trajectories;
* unmatched peak — ``birth``;  unmatched trajectory — ``death``.

Matching is deterministic: candidate pairs are processed in
``(-jaccard, trajectory id, peak index)`` order, and window contents
are a pure function of the rows (a window is a set of edges, so rows
with equal timestamps give the same window in any order).
:func:`event_f1` scores a tracked event list against a
scheduled ground truth (e.g. a
:class:`~repro.graph.generators.DynamicCommunityLog`) with a ±1
window tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.super_tree import SuperTree
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..terrain.peaks import peaks_at

__all__ = [
    "PeakSnapshot",
    "TrackEvent",
    "Trajectory",
    "PeakTracker",
    "peaks_from_tree",
    "auto_alpha",
    "event_f1",
]

LIFECYCLE_KINDS = ("birth", "death", "merge", "split", "growth", "shrink")

_M_EVENTS = obs_metrics.REGISTRY.counter(
    "repro_evolve_events_total", "Tracker lifecycle events.", ("kind",)
)


@dataclass(frozen=True)
class PeakSnapshot:
    """One peak observed in one window."""

    window: int
    members: FrozenSet[int]
    summit: float
    alpha: float

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class TrackEvent:
    """One lifecycle event.

    ``trajectory`` is the primary trajectory: the surviving one for a
    merge, the splitting one for a split.  ``others`` lists the
    absorbed trajectories (merge) or the spawned ones (split).
    """

    kind: str
    window: int
    trajectory: int
    others: Tuple[int, ...] = ()
    size: int = 0
    prev_size: int = 0

    def describe(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "window": self.window,
            "trajectory": self.trajectory,
            "others": list(self.others),
            "size": self.size,
            "prev_size": self.prev_size,
        }


@dataclass
class Trajectory:
    """The life of one tracked peak across windows."""

    id: int
    born: int
    died: Optional[int] = None
    windows: List[int] = field(default_factory=list)
    sizes: List[int] = field(default_factory=list)
    summits: List[float] = field(default_factory=list)
    members: FrozenSet[int] = frozenset()

    @property
    def alive(self) -> bool:
        return self.died is None

    def _observe(self, snap: PeakSnapshot) -> None:
        self.windows.append(snap.window)
        self.sizes.append(snap.size)
        self.summits.append(snap.summit)
        self.members = snap.members

    def describe(self) -> Dict[str, object]:
        return {
            "id": self.id,
            "born": self.born,
            "died": self.died,
            "windows": list(self.windows),
            "sizes": list(self.sizes),
            "summits": list(self.summits),
            "members": sorted(self.members),
        }


def auto_alpha(scalars: np.ndarray) -> float:
    """Default cut height: halfway up the scalar range."""
    if np.size(scalars) == 0:
        return 0.0
    lo = float(np.min(scalars))
    hi = float(np.max(scalars))
    return lo + 0.5 * (hi - lo)


def peaks_from_tree(
    tree: SuperTree,
    alpha: Optional[float] = None,
    min_size: int = 3,
    window: int = 0,
) -> List[PeakSnapshot]:
    """Cut ``tree`` at ``alpha`` and snapshot every peak of
    ``min_size`` or more items.

    Uses :func:`~repro.terrain.peaks.peaks_at` — each snapshot is one
    *full* maximal α-connected component (``highest_peaks`` would give
    only summit subtrees, the wrong notion for community membership).
    """
    if alpha is None:
        alpha = auto_alpha(tree.scalars)
    snaps = []
    for peak in peaks_at(tree, alpha):
        if peak.size < min_size:
            continue
        snaps.append(
            PeakSnapshot(
                window=window,
                members=frozenset(int(x) for x in peak.items),
                summit=peak.summit,
                alpha=float(alpha),
            )
        )
    return snaps


def _jaccard(a: FrozenSet[int], b: FrozenSet[int]) -> float:
    if not a and not b:
        return 0.0
    inter = len(a & b)
    if inter == 0:
        return 0.0
    return inter / (len(a) + len(b) - inter)


class PeakTracker:
    """Match peaks window-over-window into trajectories and events.

    Feed windows in order with :meth:`observe`; read
    :attr:`trajectories` and :attr:`events` at any point.
    """

    def __init__(
        self,
        jaccard: float = 0.3,
        growth_threshold: float = 0.25,
        min_size: int = 3,
    ) -> None:
        if not 0.0 < jaccard <= 1.0:
            raise ValueError("jaccard threshold must be in (0, 1]")
        self.jaccard = float(jaccard)
        self.growth_threshold = float(growth_threshold)
        self.min_size = int(min_size)
        self.trajectories: Dict[int, Trajectory] = {}
        self.events: List[TrackEvent] = []
        self._live: List[int] = []
        self._next_id = 0
        self.windows_observed = 0

    # ------------------------------------------------------------------
    @property
    def live(self) -> List[int]:
        """Ids of trajectories alive after the last observed window."""
        return list(self._live)

    def _spawn(self, snap: PeakSnapshot) -> Trajectory:
        traj = Trajectory(id=self._next_id, born=snap.window)
        self._next_id += 1
        traj._observe(snap)
        self.trajectories[traj.id] = traj
        return traj

    def _event(self, event: TrackEvent) -> None:
        self.events.append(event)
        _M_EVENTS.inc(kind=event.kind)

    def observe_frame(self, frame, alpha=None) -> List[TrackEvent]:
        """Track a :class:`~repro.evolve.timeline.WindowFrame`."""
        return self.observe(
            frame.index,
            peaks_from_tree(
                frame.super, alpha, self.min_size, window=frame.index
            ),
        )

    def observe(
        self, window: int, peaks: Sequence[PeakSnapshot]
    ) -> List[TrackEvent]:
        """Match ``window``'s peaks against live trajectories.

        Returns the events this window produced (also appended to
        :attr:`events`).
        """
        if window < self.windows_observed:
            raise ValueError(
                f"windows must advance: got {window} after observing "
                f"{self.windows_observed}"
            )
        with obs_trace.span(
            "evolve.track", window=window, peaks=len(peaks)
        ):
            return self._observe(
                window, [p for p in peaks if p.size >= self.min_size]
            )

    def _observe(
        self, window: int, peaks: List[PeakSnapshot]
    ) -> List[TrackEvent]:
        start = len(self.events)
        # Candidate matches above the threshold, both directions.
        cands: List[Tuple[float, int, int]] = []  # (J, tid, peak index)
        peak_matches: Dict[int, List[int]] = {i: [] for i in range(len(peaks))}
        traj_matches: Dict[int, List[int]] = {t: [] for t in self._live}
        for tid in self._live:
            last = self.trajectories[tid].members
            for i, snap in enumerate(peaks):
                j = _jaccard(last, snap.members)
                if j >= self.jaccard:
                    cands.append((j, tid, i))
                    peak_matches[i].append(tid)
                    traj_matches[tid].append(i)

        # Greedy 1-1 continuation assignment, strongest overlap first.
        cands.sort(key=lambda c: (-c[0], c[1], c[2]))
        peak_of: Dict[int, int] = {}  # tid -> peak index
        traj_of: Dict[int, int] = {}  # peak index -> tid
        for _j, tid, i in cands:
            if tid in peak_of or i in traj_of:
                continue
            peak_of[tid] = i
            traj_of[i] = tid

        # Continuations (+ growth / shrink).
        for i, tid in sorted(traj_of.items()):
            traj = self.trajectories[tid]
            prev_size = traj.sizes[-1]
            traj._observe(peaks[i])
            size = peaks[i].size
            if prev_size and abs(size - prev_size) / prev_size >= (
                self.growth_threshold
            ):
                kind = "growth" if size > prev_size else "shrink"
                self._event(
                    TrackEvent(kind, window, tid, (), size, prev_size)
                )

        # Splits: a trajectory matched by several peaks — unassigned
        # matched peaks spawn new trajectories off it.
        spawned: Dict[int, int] = {}  # peak index -> new tid
        for tid in self._live:
            extra = [
                i for i in traj_matches[tid]
                if i not in traj_of and i not in spawned
            ]
            if not extra or len(traj_matches[tid]) < 2:
                continue
            children = []
            for i in extra:
                child = self._spawn(peaks[i])
                spawned[i] = child.id
                children.append(child.id)
            self._event(
                TrackEvent(
                    "split", window, tid, tuple(children),
                    size=sum(peaks[i].size for i in extra),
                    prev_size=self.trajectories[tid].sizes[0]
                    if tid not in peak_of
                    else self.trajectories[tid].sizes[-2]
                    if len(self.trajectories[tid].sizes) > 1
                    else self.trajectories[tid].sizes[-1],
                )
            )

        # Merges + deaths: live trajectories that did not continue.
        next_live: List[int] = []
        merged_into: Dict[int, List[int]] = {}
        for tid in self._live:
            if tid in peak_of:
                next_live.append(tid)
                continue
            traj = self.trajectories[tid]
            traj.died = window
            matched = traj_matches[tid]
            if matched:
                # Absorbed into whichever trajectory continued through
                # this trajectory's best-matching peak.
                best = max(
                    matched,
                    key=lambda i: (
                        _jaccard(traj.members, peaks[i].members), -i
                    ),
                )
                survivor = traj_of.get(best)
                if survivor is not None:
                    merged_into.setdefault(survivor, []).append(tid)
                    continue
            self._event(
                TrackEvent(
                    "death", window, tid, (), 0, traj.sizes[-1]
                )
            )
        for survivor, absorbed in sorted(merged_into.items()):
            self._event(
                TrackEvent(
                    "merge", window, survivor, tuple(absorbed),
                    size=self.trajectories[survivor].sizes[-1],
                )
            )

        # Births: peaks that neither continued nor split off.
        for i, snap in enumerate(peaks):
            if i in traj_of or i in spawned:
                continue
            traj = self._spawn(snap)
            self._event(
                TrackEvent("birth", window, traj.id, (), snap.size, 0)
            )

        self._live = sorted(
            tid for tid, traj in self.trajectories.items() if traj.alive
        )
        self.windows_observed = max(self.windows_observed, window + 1)
        return self.events[start:]

    def stats(self) -> Dict[str, object]:
        counts: Dict[str, int] = {k: 0 for k in LIFECYCLE_KINDS}
        for event in self.events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return {
            "windows": self.windows_observed,
            "trajectories": len(self.trajectories),
            "live": len(self._live),
            "events": counts,
        }


def event_f1(
    predicted: Iterable,
    truth: Iterable,
    tolerance: int = 1,
    kinds: Tuple[str, ...] = ("birth", "death", "merge", "split"),
) -> float:
    """F1 of predicted lifecycle events against a scheduled ground truth.

    Events match when their ``kind`` agrees and their windows differ by
    at most ``tolerance`` (greedy nearest-window matching, each event
    used once).  Both inputs only need ``.kind`` / ``.window``
    attributes, so :class:`TrackEvent` lists score directly against
    :class:`~repro.graph.generators.CommunityEvent` schedules.
    ``growth``/``shrink`` (and any kind not listed) are ignored.
    """
    pred = [e for e in predicted if e.kind in kinds]
    true = [e for e in truth if e.kind in kinds]
    matched = 0
    used: List[bool] = [False] * len(pred)
    for t in sorted(true, key=lambda e: (e.window, e.kind)):
        best, best_d = -1, tolerance + 1
        for i, p in enumerate(pred):
            if used[i] or p.kind != t.kind:
                continue
            d = abs(p.window - t.window)
            if d < best_d:
                best, best_d = i, d
        if best >= 0 and best_d <= tolerance:
            used[best] = True
            matched += 1
    if not pred and not true:
        return 1.0
    if not pred or not true:
        return 0.0
    precision = matched / len(pred)
    recall = matched / len(true)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)
