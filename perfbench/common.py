"""Timers, the host speed probe, layer spans, slowdown injection and
summary statistics shared by the workload modules.

Layer spans are recorded from the benchmark's own code: either around a
public call the benchmark makes (``with rec.span("graph.read_s"):
pipeline.graph``) or by wrapping a public function the program calls
itself (``rec.wrap(StreamingScalarTree, "apply", "stream.apply_s")``).
Nothing in the program is edited; wrappers are installed in the
benchmark's process (or the server process it launches) and removed
again with :meth:`Recorder.restore`.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import signal
import statistics
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List

import numpy as np

clock = time.perf_counter

#: About what one probe sample of :func:`reference_kernel` takes on a
#: quiet 2-vCPU Xeon host at 2.1 GHz (CPython 3.11, numpy 2.4).  A
#: scaled time reads as if every sample in its interval had taken this.
REFERENCE_S = 55e-6
PROBE_PERIOD_S = 0.01

_PX = (np.arange(3, 9) + 0.5)[None, :]
_PY = (np.arange(5, 10) + 0.5)[:, None]
_ZBUF = np.full((5, 6), np.inf)
_FRAME = np.ones((5, 6, 3))
_COLOR = np.array([0.2, 0.4, 0.6])


def reference_kernel() -> int:
    """A fixed piece of work shaped like the program's inner loops:
    Python arithmetic around tiny numpy array operations (one triangle
    of a z-buffered rasterizer, then an integer loop)."""
    x0, y0, x1, y1, x2, y2 = 3.2, 5.1, 8.7, 6.0, 4.4, 9.3
    area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    acc = 0
    for _ in range(2):
        w0 = ((x1 - x0) * (_PY - y0) - (_PX - x0) * (y1 - y0)) / area
        w1 = ((_PX - x0) * (y2 - y0) - (x2 - x0) * (_PY - y0)) / area
        b0 = 1.0 - w0 - w1
        inside = (b0 >= 0) & (w0 >= 0) & (w1 >= 0)
        z = b0 * 0.3 + w1 * 0.5 + w0 * 0.7
        visible = inside & (z < _ZBUF)
        _FRAME[visible] = _COLOR
        for i in range(40):
            acc += (i * 7) % 5
    return acc


class SpeedProbe:
    """How fast the host runs right now, sampled alongside the work.

    The host's vCPUs share cores with other tenants, and how much that
    slows them changes within seconds (up to ~1.7x), so raw times of the
    same code spread by 30-40% between runs.  While started, a SIGALRM
    handler times one :func:`reference_kernel` call every
    ``PROBE_PERIOD_S`` of wall time (~1% of one CPU).  ``factor`` is
    the kernel's mean time over an interval divided by ``REFERENCE_S``;
    the end-to-end metrics are times divided by the factor of their own
    interval.  A change to the program moves its times but not the
    kernel's.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.running = False

    def _sample(self, signum, frame) -> None:
        # The first call brings the kernel's code and data back into
        # cache, so the timed one depends on the host, not on what the
        # program was doing when the signal came.
        reference_kernel()
        t0 = clock()
        reference_kernel()
        self.samples.append(clock() - t0)

    def start(self) -> "SpeedProbe":
        for _ in range(50):
            reference_kernel()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        self.running = True
        return self

    def stop(self) -> None:
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self.running = False

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int = 0) -> float:
        """Host slowness over the samples from ``since`` on (all of them
        when fewer than 10 fell in that interval); 1.0 when not started.

        A trimmed mean, not a median: cores flip between contended and
        free every few milliseconds, a timed operation is slowed by the
        share of its time spent contended, and the mean of the samples
        follows that share (on a 2-vCPU host, the log of a pass's time
        rose 1.0x as fast as the log of this factor; against a median
        factor, 0.6-0.75x)."""
        window = self.samples[since:]
        if len(window) < 10:
            window = self.samples
        if not window:
            return 1.0
        return trimmed_mean(window) / REFERENCE_S


#: ``module:attr.path=fraction`` rules, comma separated: each named
#: public function is made ``fraction`` slower (busy-waiting, so it
#: costs CPU like real work).  Used by ``sensitivity.py``.
SLOW_ENV = "PERFBENCH_SLOW"


class Recorder:
    """Inclusive time and call counts per layer span.

    Spans nest per thread; a span opened with no span open on its
    thread is *top-level*, and ``top_s`` sums those, so
    ``1 - top_s / wall`` is the share of a timed region no layer span
    explains.
    """

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}
        self.top_s = 0.0
        self.events: List[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[tuple] = []

    def _add(self, name: str, t0: float, dt: float, depth: int) -> None:
        with self._lock:
            self.totals[name] = self.totals.get(name, 0.0) + dt
            if depth == 0:
                self.top_s += dt
            self.events.append((name, t0, dt, depth))

    @contextmanager
    def span(self, name: str):
        depth = getattr(self._local, "depth", 0)
        self._local.depth = depth + 1
        t0 = clock()
        try:
            yield
        finally:
            dt = clock() - t0
            self._local.depth = depth
            self._add(name, t0, dt, depth)

    def wrap(self, owner, attr: str, name) -> None:
        """Replace ``owner.attr`` by a timed wrapper.  ``name`` is a span
        name or a function of the call's arguments returning one.
        Generators are timed per ``next()``."""
        func = getattr(owner, attr)
        namer = name if callable(name) else (lambda *a, **k: name)
        rec = self

        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                label = namer(*args, **kwargs)
                it = func(*args, **kwargs)
                while True:
                    with rec.span(label):
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    yield item
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                with rec.span(namer(*args, **kwargs)):
                    return func(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, func))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


class Checks:
    """Output checks: every operation attempted passes one ``expect``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def tally(self, attempted: int, failures: List[str]) -> None:
        self.attempted += attempted
        self.failures += failures

    def result(self, metrics: Dict[str, float], report: dict) -> dict:
        return {
            "metrics": metrics,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:20],
            "report": report,
        }


def run_passes(spec, untraced, traced, probe: SpeedProbe):
    """Call ``untraced()`` until ``spec["seconds"]`` have passed (at
    least three times); in a traced run alternate it with ``traced()``
    (at least twice).  One untraced warm-up call comes first -- lazy
    imports, allocator growth and first-call costs land there, not in
    the figures -- and is returned as ``warm``.  ``factors`` holds the
    probe's factor over each untraced pass."""
    warm = untraced()
    plain, spans, factors = [], [], []
    deadline = clock() + spec["seconds"]
    while len(plain) < 3 or clock() < deadline:
        mark = probe.mark()
        plain.append(untraced())
        factors.append(probe.factor(mark))
        if spec["trace"]:
            spans.append(traced())
            if len(spans) >= 2 and clock() >= deadline:
                break
    return warm, plain, spans, factors


def _spin(seconds: float) -> None:
    end = clock() + seconds
    while clock() < end:
        pass


def _resolve(target: str):
    """``"pkg.mod:Class.method"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def apply_slowdowns(spec: str = None) -> List[str]:
    """Install the ``$PERFBENCH_SLOW`` slowdowns; returns their targets."""
    spec = os.environ.get(SLOW_ENV, "") if spec is None else spec
    installed = []
    for rule in filter(None, (r.strip() for r in spec.split(","))):
        target, _, frac = rule.partition("=")
        frac = float(frac)
        owner, attr = _resolve(target)
        func = getattr(owner, attr)

        @functools.wraps(func)
        def slow(*args, _f=func, _k=frac, **kwargs):
            t0 = clock()
            out = _f(*args, **kwargs)
            _spin(_k * (clock() - t0))
            return out

        setattr(owner, attr, slow)
        installed.append(target)
    return installed


def op_metrics(wall_s: float, ops: List[float]) -> Dict[str, float]:
    """End-to-end metrics of a workload whose ops take seconds each: too
    few per run for a p99, so the tail is the upper quartile."""
    return {
        "wall_s": wall_s,
        "op_ms": 1e3 * median(ops),
        "op_tail_ms": 1e3 * percentile(ops, 75),
    }


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def trimmed_mean(values: Iterable[float]) -> float:
    """Mean of the middle 80% of a non-empty sample."""
    ordered = sorted(values)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, int(-(-q * len(ordered) // 100)))
    return float(ordered[rank - 1])


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def peak_rss_mb(pid: str = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")
