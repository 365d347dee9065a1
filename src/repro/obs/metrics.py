"""Process-wide counters, gauges and fixed-bucket histograms with
Prometheus text-format exposition (stdlib-only).

One :class:`Registry` (the module-level :data:`REGISTRY`) is shared by
every instrumented layer — the artifact cache, pipeline stages, the
HTTP server, stream replay — so ``GET /metrics`` and the CLI's
``--metrics`` flag expose one coherent snapshot.

Metric families are cheap and always-on (an increment is one lock and
one float add; there is no per-event allocation beyond the label
lookup), unlike tracing, which is off by default.  Families are
created idempotently: declaring the same name with the same type and
label names returns the existing family, so independent modules can
share one family without import-order coupling.

Labels are passed as keyword arguments at observation time::

    HITS = REGISTRY.counter("repro_cache_hits_total",
                            "Cache hits by tier.", ("tier",))
    HITS.inc(tier="memory")

Exposition (:meth:`Registry.render`) follows the Prometheus text
format, version 0.0.4: ``# HELP`` / ``# TYPE`` headers, escaped label
values, and for histograms cumulative ``_bucket{le=...}`` series plus
``_sum`` and ``_count``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Registry",
    "REGISTRY",
    "Tally",
    "DEFAULT_BUCKETS",
    "escape_label_value",
]

#: Latency-shaped default buckets (seconds), 1 ms .. 10 s.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text format."""
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r'\"')
    )


def _format_value(value: float) -> str:
    """Integers render bare (``3`` not ``3.0``); floats as repr."""
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _label_str(labelnames: Tuple[str, ...], labelvalues: Tuple[str, ...],
               extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [
        f'{name}="{escape_label_value(value)}"'
        for name, value in zip(labelnames, labelvalues)
    ]
    if extra is not None:
        pairs.append(f'{extra[0]}="{extra[1]}"')
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _Family:
    """Shared machinery: label handling + the per-child value table."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Tuple[str, ...]) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: "OrderedDict[Tuple[str, ...], object]" = OrderedDict()

    def _key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return list(self._children.items())


class Counter(_Family):
    """A monotonically increasing value (optionally per label set)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._children.get(key, 0.0))

    def render(self) -> List[str]:
        lines = []
        for key, value in self.children():
            lines.append(
                f"{self.name}{_label_str(self.labelnames, key)} "
                f"{_format_value(value)}"
            )
        return lines or [f"{self.name} 0"] if not self.labelnames else lines


class Gauge(_Family):
    """A value that can go up and down, or be computed at scrape time
    via :meth:`set_function` (e.g. uptime from a monotonic clock)."""

    kind = "gauge"

    def __init__(self, name, help, labelnames=()):
        super().__init__(name, help, labelnames)
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._children[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._children[key] = self._children.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Compute the (unlabelled) value lazily on every collection."""
        if self.labelnames:
            raise ValueError("callback gauges cannot have labels")
        self._fn = fn

    def value(self, **labels) -> float:
        if self._fn is not None:
            return float(self._fn())
        key = self._key(labels)
        with self._lock:
            return float(self._children.get(key, 0.0))

    def render(self) -> List[str]:
        if self._fn is not None:
            return [f"{self.name} {_format_value(float(self._fn()))}"]
        lines = []
        for key, value in self.children():
            lines.append(
                f"{self.name}{_label_str(self.labelnames, key)} "
                f"{_format_value(value)}"
            )
        return lines or [f"{self.name} 0"] if not self.labelnames else lines


class _HistogramChild:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0


class Histogram(_Family):
    """Fixed-bucket histogram; buckets are upper bounds (seconds for
    the default latency buckets) with an implicit ``+Inf``."""

    kind = "histogram"

    def __init__(self, name, help, labelnames=(), buckets=DEFAULT_BUCKETS):
        super().__init__(name, help, labelnames)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("at least one bucket is required")

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        value = float(value)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _HistogramChild(len(self.buckets))
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    child.counts[i] += 1
                    break
            child.sum += value
            child.count += 1

    def time(self, **labels):
        """``with hist.time(stage="tree"):`` — observe the block's
        wall-clock seconds on exit; ``.seconds`` holds the reading."""
        return _Timer(self, labels)

    def child(self, **labels) -> Tuple[List[int], float, int]:
        """(bucket counts, sum, count) for one label set (testing)."""
        key = self._key(labels)
        with self._lock:
            c = self._children.get(key)
            if c is None:
                return [0] * len(self.buckets), 0.0, 0
            return list(c.counts), c.sum, c.count

    def render(self) -> List[str]:
        lines = []
        for key, child in self.children():
            cumulative = 0
            for bound, count in zip(self.buckets, child.counts):
                cumulative += count
                lines.append(
                    f"{self.name}_bucket"
                    f"{_label_str(self.labelnames, key, ('le', _format_value(bound)))}"
                    f" {cumulative}"
                )
            lines.append(
                f"{self.name}_bucket"
                f"{_label_str(self.labelnames, key, ('le', '+Inf'))}"
                f" {child.count}"
            )
            lines.append(
                f"{self.name}_sum{_label_str(self.labelnames, key)} "
                f"{_format_value(child.sum)}"
            )
            lines.append(
                f"{self.name}_count{_label_str(self.labelnames, key)} "
                f"{child.count}"
            )
        return lines


class _Timer:
    __slots__ = ("_histogram", "_labels", "_t0", "seconds")

    def __init__(self, histogram: Histogram, labels: Dict[str, str]) -> None:
        self._histogram = histogram
        self._labels = labels
        self.seconds = 0.0

    def __enter__(self) -> "_Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.seconds = time.perf_counter() - self._t0
        self._histogram.observe(self.seconds, **self._labels)
        return False


class Tally(dict):
    """One owner's named event counts, each name bound to a counter
    family or to ``None``.  :meth:`inc` is the only statement that
    records an event: it adds to the owner's count and to the family's
    child together, so ``.stats``, ``/stats`` and ``/metrics`` agree.
    The owner serializes its calls (its lock, or its event loop)."""

    def __init__(self, **families: Optional[Counter]) -> None:
        super().__init__(dict.fromkeys(families, 0))
        self._families = families

    def inc(self, name: str, amount: int = 1, **labels) -> None:
        self[name] += amount
        if self._families[name] is not None:
            self._families[name].inc(amount, **labels)


class Registry:
    """Named metric families, rendered together.

    ``counter``/``gauge``/``histogram`` are get-or-create: a second
    declaration with the same name must match the first's type and
    label names and returns the same family object."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: "OrderedDict[str, _Family]" = OrderedDict()

    def _get_or_create(self, cls, name, help, labelnames, **kwargs) -> _Family:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if type(existing) is not cls or existing.labelnames != tuple(
                    labelnames
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            family = cls(name, help, tuple(labelnames), **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help: str = "", labelnames=()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames=()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self, name: str, help: str = "", labelnames=(),
        buckets=DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets
        )

    def families(self) -> List[_Family]:
        with self._lock:
            return list(self._families.values())

    def render(self) -> str:
        """The Prometheus text-format exposition of every family."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            lines.extend(family.render())
        return "\n".join(lines) + "\n"

    def summary(self) -> Dict[str, object]:
        """A JSON-able snapshot (the ``/stats`` integration point)."""
        out: Dict[str, object] = {}
        for family in self.families():
            if isinstance(family, Histogram):
                out[family.name] = {
                    ",".join(key) or "_": {
                        "count": child.count,
                        "sum": round(child.sum, 6),
                    }
                    for key, child in family.children()
                }
            elif isinstance(family, Gauge) and family._fn is not None:
                out[family.name] = family.value()
            else:
                out[family.name] = {
                    ",".join(key) or "_": value
                    for key, value in family.children()
                }
        return out


#: The process-wide default registry every instrumented layer uses.
REGISTRY = Registry()
