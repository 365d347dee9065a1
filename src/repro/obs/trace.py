"""Hierarchical spans with pluggable exporters (stdlib-only).

A *span* is one timed unit of work — a pipeline stage, a cache lookup,
an HTTP request, a stream replay batch — recorded as a plain dict::

    {"name": "stage.tree", "id": "1a2f-3", "parent": "1a2f-1",
     "ts_us": 1700000000000000.0, "dur_us": 8123.4,
     "pid": 4242, "tid": 139632, "attrs": {"stage": "tree"}}

Parent/child relationships propagate through a :mod:`contextvars`
variable, so spans nest correctly across ``await`` points, across
:class:`~repro.serve.workers.StageRunner` worker threads (the runner
copies the caller's context into each job), and — via
:func:`traced_job` — across process-pool workers, whose spans are
serialized back to the parent and re-parented under the submitting
span (:func:`adopt`).

The disabled path is a single branch on the module flag
:data:`ENABLED`: :func:`span` returns one shared no-op singleton, so
instrumented hot paths cost a dict lookup and a truth test when
tracing is off.  Enable with :func:`set_enabled` (the CLI's global
``--trace PATH`` flag and the ``$REPRO_TRACE`` environment variable do
this for you) and attach any number of exporters:

* :class:`RingBufferExporter` — bounded in-memory buffer (the server's
  ``/stats`` span summary reads one);
* :class:`JSONLExporter` — one JSON record per line, append-mode (safe
  for multi-process runs writing whole lines);
* :func:`to_chrome_trace` / :func:`chrome_trace_from_jsonl` — convert
  records to Chrome ``trace_event`` JSON, openable in
  ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import random
import threading
import time
from collections import deque
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

__all__ = [
    "ENABLED",
    "enabled",
    "set_enabled",
    "set_sample_rate",
    "sample_rate",
    "add_exporter",
    "remove_exporter",
    "span",
    "current_span_id",
    "Span",
    "Tracer",
    "RingBufferExporter",
    "JSONLExporter",
    "traced_job",
    "adopt",
    "to_chrome_trace",
    "read_jsonl",
    "chrome_trace_from_jsonl",
    "rollup",
]

#: Module-level enable flag — the one branch every disabled call pays.
ENABLED = False

#: Head-based sampling rate in [0, 1].  The keep/drop decision is made
#: once per *root* span; descendants inherit it, so traces stay whole —
#: either a request's full span tree is recorded or none of it is.
_SAMPLE_RATE = 1.0

_rng = random.Random()

_sampled_out: "contextvars.ContextVar[bool]" = contextvars.ContextVar(
    "repro_obs_sampled_out", default=False
)

_parent_id: "contextvars.ContextVar[Optional[str]]" = contextvars.ContextVar(
    "repro_obs_parent", default=None
)

# Wall-anchored monotonic clock: perf_counter deltas (immune to NTP
# steps) hung off one wall-clock epoch, so spans from different
# processes land on roughly the same Chrome-trace timeline.
_EPOCH_WALL = time.time()
_EPOCH_PERF = time.perf_counter()

_ids = itertools.count(1)


def _now_us() -> float:
    return (_EPOCH_WALL + (time.perf_counter() - _EPOCH_PERF)) * 1e6


def _new_id() -> str:
    # pid-qualified so ids from worker processes can never collide with
    # the parent's when their spans are adopted back.
    return f"{os.getpid():x}-{next(_ids):x}"


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class RingBufferExporter:
    """Keeps the most recent ``capacity`` span records in memory."""

    def __init__(self, capacity: int = 4096) -> None:
        self.records: "deque[dict]" = deque(maxlen=capacity)

    def export(self, record: dict) -> None:
        self.records.append(record)

    def snapshot(self) -> List[dict]:
        """A copy of the buffered records (oldest first)."""
        return list(self.records)

    def clear(self) -> None:
        self.records.clear()


class JSONLExporter:
    """Appends one JSON record per line to ``path``.

    Opened in append mode and flushed per record: concurrent processes
    tracing to the same file interleave whole lines, never partial
    ones (each record is one short ``write`` on an ``O_APPEND`` fd).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._file = open(self.path, "a", encoding="utf-8")

    def export(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            if not self._file.closed:
                self._file.write(line)
                self._file.flush()

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()


class _ListExporter:
    """Unbounded collector used by :func:`traced_job`."""

    def __init__(self) -> None:
        self.records: List[dict] = []

    def export(self, record: dict) -> None:
        self.records.append(record)


# ----------------------------------------------------------------------
# Tracer and spans
# ----------------------------------------------------------------------
class Tracer:
    """Fans finished span records out to its exporters."""

    def __init__(self) -> None:
        self._exporters: List[object] = []
        self._lock = threading.Lock()

    def add_exporter(self, exporter) -> None:
        with self._lock:
            if exporter not in self._exporters:
                self._exporters.append(exporter)

    def remove_exporter(self, exporter) -> None:
        with self._lock:
            if exporter in self._exporters:
                self._exporters.remove(exporter)

    @property
    def exporters(self) -> List[object]:
        with self._lock:
            return list(self._exporters)

    def export(self, record: dict) -> None:
        for exporter in self.exporters:
            exporter.export(record)


_TRACER = Tracer()


class Span:
    """A live span; use as a context manager (see :func:`span`)."""

    __slots__ = ("name", "span_id", "parent_id", "attrs", "_t0", "_ts", "_token")

    def __init__(self, name: str, attrs: Dict[str, object]) -> None:
        self.name = name
        self.span_id = _new_id()
        self.parent_id: Optional[str] = None
        self.attrs = attrs
        self._t0 = 0.0
        self._ts = 0.0
        self._token: Optional[contextvars.Token] = None

    def set(self, **attrs) -> "Span":
        """Attach attributes after entry (e.g. the response status)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.parent_id = _parent_id.get()
        self._token = _parent_id.set(self.span_id)
        self._ts = _now_us()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur_us = (time.perf_counter() - self._t0) * 1e6
        if self._token is not None:
            _parent_id.reset(self._token)
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        _TRACER.export(
            {
                "name": self.name,
                "id": self.span_id,
                "parent": self.parent_id,
                "ts_us": self._ts,
                "dur_us": dur_us,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "attrs": self.attrs,
            }
        )
        return False


class _NoopSpan:
    """Shared do-nothing span for the disabled path (zero per-call
    allocations beyond the interpreter's own kwargs handling)."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self


_NOOP = _NoopSpan()


class _SuppressSpan:
    """Entered by a sampled-out *root* span: marks the context so every
    descendant takes the no-op path without re-drawing the dice (a
    partial subtree with a missing root would count as an orphan)."""

    __slots__ = ("_token",)

    def __init__(self) -> None:
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> "_SuppressSpan":
        self._token = _sampled_out.set(True)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _sampled_out.reset(self._token)
        return False

    def set(self, **attrs) -> "_SuppressSpan":
        return self


def span(name: str, **attrs):
    """A context manager timing one unit of work.

    When tracing is disabled this returns one shared no-op object —
    the instrumentation's entire disabled cost is this branch.  With
    head-based sampling active (:func:`set_sample_rate` < 1), the
    keep/drop decision happens only at root spans; a dropped root
    suppresses its whole subtree."""
    if not ENABLED:
        return _NOOP
    if _sampled_out.get():
        return _NOOP
    if _SAMPLE_RATE < 1.0 and _parent_id.get() is None:
        if _rng.random() >= _SAMPLE_RATE:
            return _SuppressSpan()
    return Span(name, attrs)


def enabled() -> bool:
    return ENABLED


def set_enabled(flag: bool) -> None:
    global ENABLED
    ENABLED = bool(flag)


def set_sample_rate(rate: float, seed: Optional[int] = None) -> None:
    """Head-based sampling: keep roughly ``rate`` of root span trees.

    ``rate=1.0`` (the default) records everything; ``rate=0.1`` keeps
    ~10% of traces whole and drops the other ~90% entirely — the knob
    that makes always-on tracing affordable on a busy server
    (``$REPRO_TRACE_SAMPLE`` sets it at import time).  ``seed`` pins
    the decision sequence for tests.
    """
    global _SAMPLE_RATE
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"sample rate must be in [0, 1], got {rate!r}")
    _SAMPLE_RATE = float(rate)
    if seed is not None:
        _rng.seed(seed)


def sample_rate() -> float:
    return _SAMPLE_RATE


def add_exporter(exporter) -> None:
    _TRACER.add_exporter(exporter)


def remove_exporter(exporter) -> None:
    _TRACER.remove_exporter(exporter)


def current_span_id() -> Optional[str]:
    """The innermost live span's id in this context (``None`` at root)."""
    return _parent_id.get()


# ----------------------------------------------------------------------
# Cross-process capture
# ----------------------------------------------------------------------
def traced_job(
    fn,
    args: tuple,
    name: str,
    attrs: Optional[Dict[str, object]] = None,
) -> Tuple[object, List[dict]]:
    """Run ``fn(*args)`` under a locally enabled capturing tracer.

    The process-pool counterpart of context propagation: a worker
    process starts with tracing disabled and no exporters, so the
    parent submits this picklable wrapper instead of ``fn`` directly.
    It enables tracing for the duration, wraps the call in a ``name``
    span, and returns ``(result, records)`` — plain dicts the parent
    feeds to :func:`adopt`.  Pool workers execute one job at a time on
    one thread, so the module-global flip is safe there; in-process
    (thread-mode) callers should rely on context propagation instead.
    """
    global ENABLED, _SAMPLE_RATE
    collector = _ListExporter()
    _TRACER.add_exporter(collector)
    prev = ENABLED
    prev_rate = _SAMPLE_RATE
    ENABLED = True
    # The parent made the keep/drop decision when it submitted the job;
    # a worker re-sampling would punch holes in an already-kept trace.
    _SAMPLE_RATE = 1.0
    try:
        with span(name, **(attrs or {})):
            result = fn(*args)
    finally:
        ENABLED = prev
        _SAMPLE_RATE = prev_rate
        _TRACER.remove_exporter(collector)
    return result, collector.records


def adopt(records: Iterable[dict], parent_id: Optional[str] = None) -> List[dict]:
    """Re-parent and re-export span records captured elsewhere.

    Roots (records with no parent) are attached under ``parent_id`` —
    usually :func:`current_span_id` at the submission site — and every
    record is exported through the local tracer, so worker spans land
    in the same trace file / ring buffer as the parent's own.
    """
    adopted = []
    for record in records:
        if record.get("parent") is None:
            record = dict(record, parent=parent_id)
        adopted.append(record)
        if ENABLED:
            _TRACER.export(record)
    return adopted


# ----------------------------------------------------------------------
# Chrome trace_event conversion and rollups
# ----------------------------------------------------------------------
def to_chrome_trace(records: Iterable[dict]) -> dict:
    """Records → Chrome ``trace_event`` JSON (complete ``"X"`` events),
    loadable in ``chrome://tracing`` / Perfetto."""
    events = []
    for r in records:
        events.append(
            {
                "name": r["name"],
                "ph": "X",
                "ts": r["ts_us"],
                "dur": r["dur_us"],
                "pid": r["pid"],
                "tid": r["tid"],
                "args": dict(
                    r.get("attrs") or {}, span=r["id"], parent=r.get("parent")
                ),
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def read_jsonl(path: Union[str, Path]) -> List[dict]:
    """Load span records from a JSONL trace file (blank lines skipped;
    a ``ValueError`` names the offending line)."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not a JSON span record")
            records.append(record)
    return records


def chrome_trace_from_jsonl(
    path: Union[str, Path], out_path: Optional[Union[str, Path]] = None
) -> dict:
    """Convert a ``--trace`` JSONL file to Chrome trace JSON; when
    ``out_path`` is given the JSON is also written there."""
    trace = to_chrome_trace(read_jsonl(path))
    if out_path is not None:
        Path(out_path).write_text(json.dumps(trace))
    return trace


def _summarize(durations: List[float]) -> Dict[str, float]:
    durations.sort()
    n = len(durations)
    return {
        "count": n,
        "p50_ms": round(durations[n // 2], 3),
        "p95_ms": round(durations[min(n - 1, int(n * 0.95))], 3),
        "max_ms": round(durations[-1], 3),
        "total_ms": round(sum(durations), 3),
    }


def rollup(
    records: Iterable[dict], top: Optional[int] = None
) -> Dict[str, Dict[str, float]]:
    """Per-span-name duration rollups: count, p50/p95/max/total ms.

    The shape embedded in bench ledgers and served under ``/stats`` —
    enough to localize a regression to a stage without opening the
    full trace.  ``top=N`` keeps only the N names with the largest
    ``total_ms`` (ordered hottest first), bounding the payload on
    long-lived servers with many distinct span names."""
    by_name: Dict[str, List[float]] = {}
    for r in records:
        by_name.setdefault(r["name"], []).append(float(r["dur_us"]) / 1000.0)
    out: Dict[str, Dict[str, float]] = {}
    for name, durations in sorted(by_name.items()):
        out[name] = _summarize(durations)
    if top is not None and top >= 0 and len(out) > top:
        keep = sorted(out.items(), key=lambda kv: -kv[1]["total_ms"])[:top]
        out = dict(keep)
    return out


# $REPRO_TRACE=<path> turns tracing on at import time — how benchmark
# subprocesses and the obs-enabled CI tier inherit a trace sink without
# every entry point growing plumbing.  $REPRO_TRACE_SAMPLE=<rate>
# applies head-based sampling on top (for example 0.1 for always-on
# tracing of a busy server at affordable cost).
_env_path = os.environ.get("REPRO_TRACE")
if _env_path:  # pragma: no cover - exercised via subprocess tests
    add_exporter(JSONLExporter(_env_path))
    ENABLED = True
_env_sample = os.environ.get("REPRO_TRACE_SAMPLE")
if _env_sample:  # pragma: no cover - exercised via subprocess tests
    try:
        set_sample_rate(float(_env_sample))
    except ValueError:
        pass
