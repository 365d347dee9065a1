"""The staged pipeline every workload runs through.

All of the paper's workloads — terrain, peaks, treemap, profile,
correlate, and the streaming replay — are the same staged computation::

    source -> field -> tree -> super/simplified tree -> layout -> sink

:class:`Pipeline` wires those stages once, lazily, with each stage keyed
by a content hash of its inputs and parameters and looked up in an
:class:`~repro.engine.cache.ArtifactCache` before it is computed, so a
repeated build (same dataset, measure, bins) skips straight to render.

Stage *computation* runs on the :mod:`repro.accel` tier in force
(``native`` C kernels where they load, else ``vector``).  Both tiers
are equivalence-tested to produce identical arrays, so the tier never
enters a cache key: a warm cache hit bypasses both, and artifacts
built under either are interchangeable.

:class:`StreamingPipeline` swaps the tree stage for a
:class:`~repro.stream.incremental.StreamingScalarTree` over a
:class:`~repro.stream.delta.DeltaGraph` while reusing every other stage
(source, field via the registry, and all sinks), so static and
incremental builds share one code path; the maintained super tree is
array-identical to the one a static pipeline builds on the compacted
snapshot (see ``tests/engine/test_stream_mode.py``).

Example::

    from repro.engine import ArtifactCache, Pipeline

    cache = ArtifactCache("~/.cache/repro")        # or None: memory-only
    p = Pipeline.from_dataset("grqc", "kcore", cache=cache)
    p.render(path="grqc_kcore.png")                # cold: builds + caches
    Pipeline.from_dataset("grqc", "kcore", cache=cache).render(
        path="again.png")                          # warm: cache hits only
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..core import (
    EdgeScalarGraph,
    ScalarGraph,
    build_edge_tree,
    build_super_tree,
    build_vertex_tree,
    simplify_tree,
)
from ..core.scalar_tree import ScalarTree
from ..core.super_tree import SuperTree
from ..graph import datasets
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..graph.csr import CSRGraph
from ..graph.io import read_edge_list
from ..stream import SlidingWindow, StreamingScalarTree
from ..terrain import (
    highest_peaks,
    layout_tree,
    rasterize,
    render_terrain,
    treemap_svg,
)
from ..terrain.profile import profile_svg
from ..resil import faults as resil_faults
from ..resil.retry import RetryPolicy, retry_call
from . import registry
from .cache import ArtifactCache, fingerprint_array, fingerprint_graph, stage_key

#: Transient-fault budget for one stage build: injected `stage_fail`
#: faults (and any future TransientFault from a flaky source) are
#: retried quickly; deterministic exceptions still propagate unretried.
_STAGE_RETRY = RetryPolicy(max_attempts=3, base_delay=0.01, max_delay=0.2)

__all__ = [
    "Source",
    "DatasetSource",
    "EdgeListSource",
    "GraphSource",
    "Pipeline",
    "StreamingPipeline",
]

PathLike = Union[str, Path]
FieldGraph = Union[ScalarGraph, EdgeScalarGraph]

#: Wall time of every cold stage build, by stage name — the
#: ``repro_stage_build_seconds`` family on ``GET /metrics`` and the
#: stage-build panel of ``/dash``.
STAGE_BUILD_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_stage_build_seconds",
    "Cold pipeline stage build time by stage.",
    ("stage",),
)

#: Streaming replay batch application time.
STREAM_BATCH_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_stream_batch_seconds", "Edit batch application time."
)


# ----------------------------------------------------------------------
# Source stage
# ----------------------------------------------------------------------
class Source:
    """Where the graph comes from (the pipeline's first stage)."""

    def load(self) -> CSRGraph:
        raise NotImplementedError


class DatasetSource(Source):
    """A registered dataset (memoized by :mod:`repro.graph.datasets`)."""

    def __init__(self, name: str) -> None:
        self.name = name

    def load(self) -> CSRGraph:
        return datasets.load(self.name).graph

    def __repr__(self) -> str:
        return f"DatasetSource({self.name!r})"


class EdgeListSource(Source):
    """A SNAP-style edge-list file, read on the first load and kept, so
    every pipeline and stream replay over one source shares one graph
    (a :class:`~repro.stream.delta.DeltaGraph` never mutates its base)."""

    def __init__(self, path: PathLike) -> None:
        self.path = path
        self._graph: Optional[CSRGraph] = None
        self._lock = threading.Lock()

    def load(self) -> CSRGraph:
        with self._lock:
            if self._graph is None:
                self._graph = read_edge_list(self.path)
            return self._graph

    def __repr__(self) -> str:
        return f"EdgeListSource({str(self.path)!r})"


class GraphSource(Source):
    """An already-built :class:`CSRGraph`."""

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph

    def load(self) -> CSRGraph:
        return self.graph

    def __repr__(self) -> str:
        return f"GraphSource({self.graph!r})"


def _as_source(source) -> Source:
    if isinstance(source, Source):
        return source
    if isinstance(source, CSRGraph):
        return GraphSource(source)
    raise TypeError(
        "source must be a Source, a CSRGraph, or a scalar graph; "
        f"got {type(source).__name__}"
    )


# ----------------------------------------------------------------------
# Shared sink stages
# ----------------------------------------------------------------------
class _TreeSinks:
    """Sink stages shared by the static and streaming pipelines.

    Subclasses provide ``display_tree`` (the super tree to draw) and
    ``layout()``; everything downstream of the layout is identical.
    """

    @property
    def display_tree(self) -> SuperTree:
        raise NotImplementedError

    def layout(self):
        raise NotImplementedError

    def heightfield(self, resolution: int = 160):
        """The rasterized heightfield for ``resolution`` (cached, so
        repeated renders — rotated cameras, stream frames — skip the
        rasterization, the most expensive part of the sink stage)."""
        raise NotImplementedError

    def render(
        self,
        path: Optional[PathLike] = None,
        *,
        camera=None,
        resolution: int = 160,
        width: int = 640,
        height: int = 480,
        **kwargs,
    ) -> np.ndarray:
        """Render the terrain image (returns the RGB array)."""
        return render_terrain(
            self.display_tree,
            camera=camera,
            resolution=resolution,
            width=width,
            height=height,
            layout=self.layout(),
            heightfield=self.heightfield(resolution),
            path=path,
            **kwargs,
        )

    def treemap(self, path: Optional[PathLike] = None, *, size: int = 640) -> str:
        """Render the linked 2D treemap SVG."""
        return treemap_svg(
            self.display_tree, layout=self.layout(), size=size, path=path
        )

    def profile(
        self,
        path: Optional[PathLike] = None,
        *,
        width: int = 720,
        height: int = 240,
    ) -> str:
        """Render the linked 1D profile SVG."""
        return profile_svg(
            self.display_tree, width=width, height=height, path=path
        )

    def peaks(self, count: int = 3) -> List:
        """The ``count`` highest disjoint-and-disconnected peaks."""
        return highest_peaks(
            self.display_tree, count=count, layout=self.layout()
        )


# ----------------------------------------------------------------------
# Static pipeline
# ----------------------------------------------------------------------
class Pipeline(_TreeSinks):
    """Staged, cached build: source → field → tree → display → layout.

    Parameters
    ----------
    source:
        A :class:`Source`, a raw :class:`CSRGraph`, or a
        :class:`ScalarGraph` / :class:`EdgeScalarGraph` that already
        carries its scalars (then ``measure`` must be omitted).
    measure:
        Registered measure name (see
        :func:`repro.engine.registry.measure_names`); its declared kind
        picks the vertex or edge tree algorithm.
    bins:
        When given, the display tree is simplified to ~``bins`` scalar
        levels (paper §II-E) instead of the exact super tree.
    scheme:
        Discretization scheme for ``bins`` (``"quantile"``/``"uniform"``).
    cache:
        An :class:`ArtifactCache`; defaults to a fresh memory-only cache.
        Share one instance (or point several at one directory) to reuse
        artifacts across builds.

    A pipeline holds only its inputs: the graph, the field and their
    content fingerprints, which every stage key hashes.  Each stage
    result (tree, display tree, layout, heightfields) lives only in the
    cache, so a memory budget on the cache bounds them all; a result it
    evicts is freed, and rebuilt from the inputs on its next use.
    """

    def __init__(
        self,
        source,
        measure: Optional[str] = None,
        *,
        bins: Optional[int] = None,
        scheme: str = "quantile",
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        self._field: Optional[FieldGraph] = None
        if isinstance(source, (ScalarGraph, EdgeScalarGraph)):
            if measure is not None:
                raise ValueError(
                    "measure must be omitted when the source already "
                    "carries scalars"
                )
            self._field = source
            self.source: Source = GraphSource(source.graph)
            #: ``"vertex"`` or ``"edge"``: which tree algorithm runs.
            self.kind = "vertex" if isinstance(source, ScalarGraph) else "edge"
        else:
            self.source = _as_source(source)
            if measure is None:
                raise ValueError("a measure name is required")
            if measure not in registry.measure_names():
                raise KeyError(
                    f"unknown measure {measure!r}; known measures: "
                    f"{', '.join(registry.measure_names())}"
                )
            self.kind = registry.get_measure(measure).kind
        self.measure = measure
        self.bins = bins
        self.scheme = scheme
        self.cache = cache if cache is not None else ArtifactCache()
        self._graph: Optional[CSRGraph] = None
        self._graph_fp: Optional[str] = None
        self._field_fp: Optional[str] = None

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_dataset(cls, name: str, measure: str, **kwargs) -> "Pipeline":
        """Pipeline over a registered dataset."""
        return cls(DatasetSource(name), measure, **kwargs)

    @classmethod
    def from_edge_list(cls, path: PathLike, measure: str, **kwargs) -> "Pipeline":
        """Pipeline over a SNAP-style edge-list file."""
        return cls(EdgeListSource(path), measure, **kwargs)

    # -- keyed stage helper --------------------------------------------
    def _stage(self, name, params, fingerprints, build, disk=True):
        key = stage_key(name, params, *fingerprints)
        with obs_trace.span(f"stage.{name}", measure=self.measure) as sp:
            value = self.cache.get(key)
            if value is None:
                def guarded():
                    # Fault site `stage_fail`: a scheduled transient
                    # failure before the build runs; healed by the
                    # bounded retry below (occurrence counters advance).
                    resil_faults.maybe_fail("stage_fail", f"stage.{name}")
                    return build()

                with STAGE_BUILD_SECONDS.time(stage=name):
                    value = retry_call(
                        guarded, policy=_STAGE_RETRY, site=f"stage.{name}"
                    )
                sp.set(built=True)
                value = self.cache.put(key, value, disk=disk)
        return value

    # -- stage-level entry points --------------------------------------
    def stage(self, name: str, params: Dict[str, object], build, disk=True):
        """Run ``build()`` as a cached stage of this pipeline.

        The stage is keyed like every stage past the field — name +
        params + the graph and field content fingerprints — so derived
        artifacts (e.g. :mod:`repro.serve`'s LOD levels) share the
        pipeline's cache identity: same inputs hit, changed inputs miss.
        """
        return self._stage(
            name,
            params,
            [self.graph_fingerprint, self.field_fingerprint],
            build,
            disk=disk,
        )

    def display_params(self) -> Dict[str, object]:
        """The parameter triple shared by every display-derived stage."""
        return {
            "kind": self.kind,
            "bins": self.bins,
            "scheme": self.scheme if self.bins else None,
        }

    # -- stages ---------------------------------------------------------
    @property
    def graph(self) -> CSRGraph:
        """Source stage: the underlying graph."""
        if self._graph is None:
            with obs_trace.span("stage.source", source=repr(self.source)):
                with STAGE_BUILD_SECONDS.time(stage="source"):
                    self._graph = self.source.load()
        return self._graph

    @property
    def graph_fingerprint(self) -> str:
        if self._graph_fp is None:
            self._graph_fp = fingerprint_graph(self.graph)
        return self._graph_fp

    def _field_stage(self, spec) -> np.ndarray:
        """Run the cached field stage for one measure spec.  The stage
        key (name, params, fingerprints) and the disk policy live only
        here so every caller shares cache identity."""
        return self._stage(
            "field",
            {"measure": spec.name},
            [self.graph_fingerprint],
            lambda: registry.compute(spec.name, self.graph),
            disk=spec.cost != "cheap",
        )

    @property
    def field(self) -> FieldGraph:
        """Field stage: the scalar graph (measure evaluated, cached)."""
        if self._field is None:
            spec = registry.get_measure(self.measure)
            wrap = ScalarGraph if self.kind == "vertex" else EdgeScalarGraph
            self._field = wrap(self.graph, self._field_stage(spec))
        return self._field

    @property
    def field_fingerprint(self) -> str:
        if self._field_fp is None:
            self._field_fp = fingerprint_array(self.field.scalars)
        return self._field_fp

    @property
    def tree(self) -> ScalarTree:
        """Tree stage: the raw scalar tree (Algorithm 1 or 3, cached)."""
        builder = (
            build_vertex_tree if self.kind == "vertex" else build_edge_tree
        )
        return self.stage(
            "tree", {"kind": self.kind}, lambda: builder(self.field)
        )

    @property
    def display_tree(self) -> SuperTree:
        """Display stage: super tree (Algorithm 2), simplified if
        ``bins`` is set.  A cache hit here skips the tree stage too."""
        if self.bins:
            build = lambda: simplify_tree(  # noqa: E731
                self.tree, self.bins, scheme=self.scheme
            )
        else:
            build = lambda: build_super_tree(self.tree)  # noqa: E731
        return self.stage("display", self.display_params(), build)

    def layout(self):
        """Layout stage: the nested-disc 2D layout (memory-cached —
        layouts have no on-disk form)."""
        return self.stage(
            "layout",
            self.display_params(),
            lambda: layout_tree(self.display_tree),
            disk=False,
        )

    def heightfield(self, resolution: int = 160):
        return self.stage(
            "heightfield",
            dict(self.display_params(), resolution=resolution),
            lambda: rasterize(self.layout(), resolution=resolution),
            disk=False,
        )

    # -- extras ---------------------------------------------------------
    def measure_field(self, name: str) -> np.ndarray:
        """Evaluate another *vertex* measure on this pipeline's graph,
        through the same cached field stage (used by ``correlate``)."""
        spec = registry.get_measure(name)
        if spec.kind != "vertex":
            raise ValueError(
                f"measure {name!r} is edge-based; correlation needs "
                "vertex measures"
            )
        return self._field_stage(spec)

    def build(self) -> "Pipeline":
        """Force every stage through layout; returns ``self``."""
        self.layout()
        return self

    def __repr__(self) -> str:
        return (
            f"Pipeline(source={self.source!r}, measure={self.measure!r}, "
            f"bins={self.bins})"
        )


# ----------------------------------------------------------------------
# Streaming pipeline
# ----------------------------------------------------------------------
class StreamingPipeline(_TreeSinks):
    """The pipeline with the tree stage running incrementally.

    The source and field stages are exactly :class:`Pipeline`'s (cached
    through the same :class:`ArtifactCache`); the tree stage is a
    :class:`StreamingScalarTree` maintained under edit batches, and the
    sinks are inherited unchanged.  After any sequence of edits the
    display tree is array-identical to the one a static pipeline builds
    on the compacted snapshot (:meth:`static_equivalent`).

    Parameters
    ----------
    source, measure, bins, scheme, cache:
        As for :class:`Pipeline`; the measure (or the explicit field)
        must be vertex-based.
    rebuild_threshold:
        Dirty-vertex fraction beyond which the maintainer falls back to
        a full rebuild (see :class:`StreamingScalarTree`).
    window:
        Optional sliding-window horizon; enables :meth:`push`.
    """

    def __init__(
        self,
        source,
        measure: Optional[str] = None,
        *,
        bins: Optional[int] = None,
        scheme: str = "quantile",
        rebuild_threshold: float = 0.5,
        window: Optional[float] = None,
        cache: Optional[ArtifactCache] = None,
    ) -> None:
        base = Pipeline(source, measure, bins=bins, scheme=scheme, cache=cache)
        # base.kind is the measure's declared kind: edge measures are
        # rejected before the (possibly expensive) field stage runs.
        if base.kind != "vertex":
            raise ValueError(
                "streaming mode needs a vertex measure; pick from "
                f"{', '.join(registry.measure_names(kind='vertex'))}"
            )
        self.base = base
        self.bins = bins
        self.scheme = scheme
        self.stream = StreamingScalarTree(
            base.field, rebuild_threshold=rebuild_threshold
        )
        self.window = (
            SlidingWindow(self.stream, window) if window is not None else None
        )
        self._display: Optional[SuperTree] = None
        self._layout = None
        self._heightfields: dict = {}

    # -- edit application ----------------------------------------------
    def apply(self, batch) -> ScalarTree:
        """Apply one edit transaction; downstream stages recompute lazily."""
        self._invalidate()
        with obs_trace.span("stream.apply", edits=len(batch)):
            with STREAM_BATCH_SECONDS.time():
                return self.stream.apply(batch)

    def push(self, t: float, batch) -> None:
        """Apply a timestamped batch through the sliding window."""
        if self.window is None:
            raise ValueError(
                "no sliding window configured (pass window=... )"
            )
        self._invalidate()
        with obs_trace.span("stream.push", edits=len(batch), t=t):
            with STREAM_BATCH_SECONDS.time():
                self.window.push(t, batch)

    def _invalidate(self) -> None:
        self._display = None
        self._layout = None
        self._heightfields.clear()

    # -- tree/display stages -------------------------------------------
    @property
    def tree(self) -> ScalarTree:
        """The incrementally maintained raw scalar tree."""
        return self.stream.tree

    @property
    def display_tree(self) -> SuperTree:
        if self._display is None:
            self._display = self.stream.display_tree(
                self.bins, scheme=self.scheme
            )
        return self._display

    def layout(self):
        if self._layout is None:
            self._layout = layout_tree(self.display_tree)
        return self._layout

    def heightfield(self, resolution: int = 160):
        if resolution not in self._heightfields:
            self._heightfields[resolution] = rasterize(
                self.layout(), resolution=resolution
            )
        return self._heightfields[resolution]

    @property
    def stats(self):
        """The maintainer's counters (batches, incremental, rebuilds...)."""
        return self.stream.stats

    def static_equivalent(self) -> Pipeline:
        """A static :class:`Pipeline` over the compacted current
        snapshot — its display tree must be array-identical to
        :attr:`display_tree` (the streaming/static equivalence
        contract)."""
        return Pipeline(
            self.stream.snapshot(), bins=self.bins, scheme=self.scheme
        )

    def __repr__(self) -> str:
        return (
            f"StreamingPipeline(source={self.base.source!r}, "
            f"measure={self.base.measure!r}, bins={self.bins}, "
            f"batches={self.stats['batches']})"
        )
