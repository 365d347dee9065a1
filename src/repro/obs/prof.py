"""Sampling wall-clock profiler (stdlib-only) with flamegraph output.

The third observability layer: :mod:`repro.obs.trace` says *what* ran
and for how long, :mod:`repro.obs.metrics` says *how often* — this
module says *where the time went inside a stage*, without recompiling
anything and without a tracing-sized overhead.

A background daemon thread snapshots every live thread's Python stack
via ``sys._current_frames()`` at a configurable rate (default
:data:`DEFAULT_HZ` = 97 Hz — prime, so the sampler cannot phase-lock
with periodic work) and aggregates them as *collapsed stacks*: one
``frame;frame;frame count`` line per unique stack, the interchange
format of Brendan Gregg's flamegraph tooling.  :func:`flamegraph_svg`
renders a profile to a self-contained SVG with no external assets.

Three entry points:

* :class:`SamplingProfiler` — start/stop (or context-manager) capture
  of everything the process does;
* :func:`capture` — span-scoped capture: profiles a region *and*
  attaches the sample summary to the active trace span, so the profile
  rides the existing contextvars parent propagation (including into
  ``StageRunner`` thread jobs);
* :class:`ContinuousProfiler` — an always-on, low-rate sampler over a
  bounded ring of timestamped samples; :meth:`ContinuousProfiler.window`
  slices the ring by wall-clock interval, which is how the server
  attaches a profile slice to a slow request after the fact.

The sampler's overhead is bounded: each tick is one
``sys._current_frames()`` call plus a dict update per thread, with no
tracing hooks installed in the profiled code — the <5 % bound on a real
tree-construction workload is asserted in ``tests/obs/test_prof.py``.
"""

from __future__ import annotations

import html
import sys
import threading
import time
from collections import Counter, deque
from typing import Dict, List, Optional, Tuple

from . import trace as obs_trace

__all__ = [
    "DEFAULT_HZ",
    "Profile",
    "SamplingProfiler",
    "ContinuousProfiler",
    "capture",
    "flamegraph_svg",
]

#: Default sampling rate.  Prime on purpose: a 100 Hz sampler watching
#: 10 ms-periodic work sees the same frame every tick; 97 Hz drifts
#: through the period and samples it fairly.
DEFAULT_HZ = 97

#: Stacks deeper than this are truncated at the root end (the leaf
#: frames are the interesting part of a runaway recursion).
_MAX_DEPTH = 128


def _frame_label(frame) -> str:
    code = frame.f_code
    filename = code.co_filename
    # Compact module-ish label: last path component without extension.
    slash = max(filename.rfind("/"), filename.rfind("\\"))
    stem = filename[slash + 1:]
    if stem.endswith(".py"):
        stem = stem[:-3]
    return f"{stem}:{code.co_name}"


def _collapse(frame) -> str:
    """One thread's stack as a root-first ``;``-joined collapsed line."""
    parts: List[str] = []
    while frame is not None and len(parts) < _MAX_DEPTH:
        parts.append(_frame_label(frame))
        frame = frame.f_back
    parts.reverse()
    return ";".join(parts)


class Profile:
    """An aggregated set of stack samples.

    ``counts`` maps a collapsed stack string to how many samples landed
    there; ``n_samples`` is the total, ``duration_s`` the wall-clock
    window the samples cover, ``hz`` the configured rate.
    """

    __slots__ = ("counts", "n_samples", "duration_s", "hz")

    def __init__(
        self,
        counts: Optional[Dict[str, int]] = None,
        *,
        n_samples: int = 0,
        duration_s: float = 0.0,
        hz: int = DEFAULT_HZ,
    ) -> None:
        self.counts: Dict[str, int] = dict(counts or {})
        self.n_samples = n_samples
        self.duration_s = duration_s
        self.hz = hz

    def collapsed(self) -> str:
        """The profile in collapsed-stack text format (one ``stack
        count`` line per unique stack, heaviest first)."""
        lines = [
            f"{stack} {count}"
            for stack, count in sorted(
                self.counts.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def self_times(self) -> Counter:
        """Samples attributed to each *leaf* frame (self time)."""
        leaves: Counter = Counter()
        for stack, count in self.counts.items():
            leaves[stack.rsplit(";", 1)[-1]] += count
        return leaves

    def top(self, n: int = 10) -> List[Tuple[str, int]]:
        """The ``n`` hottest leaf frames as ``(label, samples)``."""
        return self.self_times().most_common(n)

    def merge(self, other: "Profile") -> "Profile":
        """Fold another profile's samples into this one (in place)."""
        for stack, count in other.counts.items():
            self.counts[stack] = self.counts.get(stack, 0) + count
        self.n_samples += other.n_samples
        self.duration_s += other.duration_s
        return self

    def __repr__(self) -> str:
        return (
            f"Profile(samples={self.n_samples}, "
            f"stacks={len(self.counts)}, "
            f"duration_s={self.duration_s:.2f})"
        )


class SamplingProfiler:
    """Background-thread sampler over ``sys._current_frames()``.

    Use as a context manager or via explicit :meth:`start` /
    :meth:`stop`; the result is a :class:`Profile`.  All threads except
    the sampler itself are captured.
    """

    def __init__(self, hz: int = DEFAULT_HZ) -> None:
        if hz < 1:
            raise ValueError("hz must be >= 1")
        self.hz = int(hz)
        self._counts: Counter = Counter()
        self._n_samples = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._t0: Optional[float] = None
        self._elapsed = 0.0

    # ------------------------------------------------------------------
    def _sample_once(self) -> None:
        me = threading.get_ident()
        for tid, frame in sys._current_frames().items():
            if tid == me:
                continue
            self._counts[_collapse(frame)] += 1
            self._n_samples += 1

    def _run(self) -> None:
        interval = 1.0 / self.hz
        next_tick = time.perf_counter()
        while not self._stop.is_set():
            self._sample_once()
            # Fixed-rate scheduling: sleep to the next tick boundary so
            # a slow sample doesn't compound into a slower rate.
            next_tick += interval
            delay = next_tick - time.perf_counter()
            if delay > 0:
                self._stop.wait(delay)
            else:
                next_tick = time.perf_counter()

    # ------------------------------------------------------------------
    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._stop.clear()
        self._t0 = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-prof", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> Profile:
        if self._t0 is None:
            raise RuntimeError("profiler was never started")
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None
            self._elapsed = time.perf_counter() - self._t0
        return self.profile()

    def profile(self) -> Profile:
        return Profile(
            dict(self._counts),
            n_samples=self._n_samples,
            duration_s=self._elapsed or (
                time.perf_counter() - self._t0
                if self._t0 is not None else 0.0
            ),
            hz=self.hz,
        )

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._thread is not None:
            self.stop()
        return False


class ContinuousProfiler:
    """Always-on low-rate sampler over a bounded ring of samples.

    Each sample is ``(wall_time, collapsed_stack)``; the ring holds the
    most recent ``capacity`` of them (at the default 19 Hz and 4096
    samples that is a ~3.5 minute window).  :meth:`window` aggregates
    the slice inside a wall-clock interval — how a slow request gets a
    profile slice attached *after* it finished.
    """

    def __init__(self, hz: int = 19, capacity: int = 4096) -> None:
        if hz < 1:
            raise ValueError("hz must be >= 1")
        self.hz = int(hz)
        self._ring: "deque[Tuple[float, str]]" = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    @property
    def running(self) -> bool:
        return self._thread is not None

    def _run(self) -> None:
        interval = 1.0 / self.hz
        me = threading.get_ident()
        while not self._stop.is_set():
            now = time.time()
            stacks = [
                _collapse(frame)
                for tid, frame in sys._current_frames().items()
                if tid != me
            ]
            with self._lock:
                for stack in stacks:
                    self._ring.append((now, stack))
            self._stop.wait(interval)

    def start(self) -> "ContinuousProfiler":
        if self._thread is None:
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-prof-cont", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join(timeout=5.0)
            self._thread = None

    def window(self, t0: float, t1: float) -> Profile:
        """Samples whose wall time falls in ``[t0, t1]``, aggregated."""
        counts: Counter = Counter()
        with self._lock:
            for ts, stack in self._ring:
                if t0 <= ts <= t1:
                    counts[stack] += 1
        return Profile(
            dict(counts),
            n_samples=sum(counts.values()),
            duration_s=max(0.0, t1 - t0),
            hz=self.hz,
        )

    def profile(self) -> Profile:
        """Everything currently in the ring."""
        with self._lock:
            if not self._ring:
                return Profile(hz=self.hz)
            t0, t1 = self._ring[0][0], self._ring[-1][0]
        return self.window(t0, t1)


class _Capture:
    """Context manager pairing a profiler with a trace span."""

    __slots__ = ("name", "hz", "attrs", "profiler", "profile", "_span")

    def __init__(self, name: str, hz: int, attrs: dict) -> None:
        self.name = name
        self.hz = hz
        self.attrs = attrs
        self.profiler: Optional[SamplingProfiler] = None
        self.profile: Optional[Profile] = None
        self._span = None

    def __enter__(self) -> "_Capture":
        self._span = obs_trace.span(self.name, hz=self.hz, **self.attrs)
        self._span.__enter__()
        self.profiler = SamplingProfiler(hz=self.hz).start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            self.profile = self.profiler.stop()
            self._span.set(
                samples=self.profile.n_samples,
                stacks=len(self.profile.counts),
                top=[
                    [label, count] for label, count in self.profile.top(5)
                ],
            )
        finally:
            self._span.__exit__(exc_type, exc, tb)
        return False


def capture(
    name: str = "prof.capture", hz: int = DEFAULT_HZ, **attrs
) -> _Capture:
    """Span-scoped profile capture.

    Opens a ``name`` trace span around a :class:`SamplingProfiler` run
    and, on exit, attaches the sample summary (total samples, unique
    stacks, top-5 self-time frames) as span attributes.  Because this
    is an ordinary span, it parents correctly wherever spans already
    do: under ``await`` points and inside ``StageRunner`` worker
    threads (context copy).  The full profile stays on the returned
    object (``cap.profile``) for callers that want the collapsed text
    or an SVG.
    """
    return _Capture(name, hz, attrs)


# ----------------------------------------------------------------------
# Flamegraph rendering
# ----------------------------------------------------------------------
_ROW_H = 17
_MIN_W = 0.4          # rects narrower than this many px are dropped
_TEXT_W = 45          # rects narrower than this get no label


def _build_tree(counts: Dict[str, int]):
    """Collapsed stacks -> nested ``{child_label: [total, children]}``."""
    root: dict = {}
    for stack, count in counts.items():
        node = root
        for label in stack.split(";"):
            entry = node.setdefault(label, [0, {}])
            entry[0] += count
            node = entry[1]
    return root


def _color(label: str) -> str:
    """Deterministic warm color per frame label (flame palette)."""
    h = 0
    for ch in label:
        h = (h * 131 + ord(ch)) & 0xFFFFFF
    r = 205 + (h & 0x1F)          # 205..236
    g = 80 + ((h >> 5) & 0x7F)    # 80..207
    b = (h >> 12) & 0x37          # 0..55
    return f"rgb({r},{g},{b})"


def flamegraph_svg(
    profile,
    *,
    title: str = "repro profile",
    width: int = 1200,
) -> str:
    """Render a :class:`Profile` (or a raw ``{stack: count}`` dict) to a
    self-contained flamegraph SVG string — no scripts, no external
    assets, openable in any browser.  Wider rectangles = more samples;
    the stack grows upward from the root row at the bottom.
    """
    counts = profile.counts if isinstance(profile, Profile) else dict(profile)
    total = sum(counts.values())
    tree = _build_tree(counts)

    rects: List[str] = []
    max_depth = [0]

    def emit(node: dict, depth: int, x: float, scale: float) -> None:
        for label in sorted(node):
            samples, children = node[label]
            w = samples * scale
            if w < _MIN_W:
                continue
            max_depth[0] = max(max_depth[0], depth)
            pct = 100.0 * samples / total if total else 0.0
            tip = html.escape(
                f"{label} — {samples} samples ({pct:.1f}%)", quote=True
            )
            rects.append(
                (depth, x, w, label, tip)  # type: ignore[arg-type]
            )
            emit(children, depth + 1, x, scale)
            x += w

    if total:
        emit(tree, 0, 0.0, float(width) / total)

    height = (max_depth[0] + 1) * _ROW_H + 40 if total else 60
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="#fdf6ec"/>',
        f'<text x="8" y="16" font-size="13">{html.escape(title)} '
        f"&#8212; {total} samples</text>",
    ]
    for depth, x, w, label, tip in rects:  # type: ignore[misc]
        y = height - 24 - (depth + 1) * _ROW_H
        parts.append(
            f'<g><title>{tip}</title>'
            f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" '
            f'height="{_ROW_H - 1}" fill="{_color(label)}" '
            f'stroke="#fdf6ec" stroke-width="0.5"/>'
        )
        if w >= _TEXT_W:
            shown = label
            # ~6.6 px per monospace char at font-size 11.
            keep = max(3, int(w / 6.6))
            if len(shown) > keep:
                shown = shown[: keep - 1] + "…"
            parts.append(
                f'<text x="{x + 3:.2f}" y="{y + 12}">'
                f"{html.escape(shown)}</text>"
            )
        parts.append("</g>")
    if not total:
        parts.append(
            '<text x="8" y="40">no samples captured</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
