"""repro.obs — structured tracing, metrics and profiling.

The observability layer the rest of the system reports through:

``repro.obs.trace``
    Hierarchical spans (``with obs.span("tree.build", edges=n):``)
    with contextvars parent propagation across threads and asyncio
    tasks, plus ring-buffer / JSONL / Chrome ``trace_event``
    exporters.  Off by default; the disabled path is a single branch
    returning a shared no-op span.
``repro.obs.metrics``
    A process-wide registry of counters, gauges and fixed-bucket
    histograms with Prometheus text-format exposition (served by
    ``GET /metrics``, printed by the CLI's ``--metrics`` flag).
``repro.obs.prof``
    A stdlib-only sampling wall-clock profiler (background thread over
    ``sys._current_frames()``), span-scoped capture, and a
    self-contained flamegraph SVG renderer.  Served by
    ``GET /debug/prof``, driven from the CLI by ``repro prof``.

Instrumented layers: :class:`~repro.engine.pipeline.Pipeline` stages,
the :func:`~repro.terrain.render.render_terrain` sink (mesh, render and
encode spans), :class:`~repro.engine.cache.ArtifactCache` tiers,
every :mod:`repro.serve` request, and :mod:`repro.stream` replay
batches.
Enable tracing with the global ``--trace PATH`` CLI flag or
``$REPRO_TRACE``; both write JSONL convertible to Chrome trace JSON
via :func:`~repro.obs.trace.chrome_trace_from_jsonl`.
"""

from . import metrics, prof, trace
from .metrics import REGISTRY
from .prof import ContinuousProfiler, SamplingProfiler, capture, flamegraph_svg
from .trace import (
    JSONLExporter,
    RingBufferExporter,
    add_exporter,
    chrome_trace_from_jsonl,
    current_span_id,
    enabled,
    remove_exporter,
    rollup,
    set_enabled,
    span,
    to_chrome_trace,
)

__all__ = [
    "metrics",
    "trace",
    "prof",
    "REGISTRY",
    "span",
    "enabled",
    "set_enabled",
    "add_exporter",
    "remove_exporter",
    "current_span_id",
    "rollup",
    "RingBufferExporter",
    "JSONLExporter",
    "SamplingProfiler",
    "ContinuousProfiler",
    "capture",
    "flamegraph_svg",
]
