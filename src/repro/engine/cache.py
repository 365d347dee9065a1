"""Content-addressed artifact cache for pipeline stages.

Every expensive pipeline stage (measure evaluation, tree construction,
super-tree/simplification, layout) is keyed by a SHA-256 content hash of
its *inputs* — the underlying graph's CSR arrays, the scalar field, and
the stage parameters — so a key can only ever map to one value: there is
no invalidation logic, a changed input simply hashes to a different key.

Two tiers:

* **memory** — every artifact, including ones with no on-disk form
  (terrain layouts);
* **disk** (optional) — artifacts with a stable serialized form (trees
  and numeric arrays, via :mod:`repro.core.serialize`'s artifact
  envelope) are written to ``<directory>/<key>.json`` so a second
  process skips straight to render.

The cache is safe for concurrent use: an ``RLock`` guards the memory
tier (the server's request handlers, worker callbacks and benchmarks all
share one instance), and an optional ``max_memory_bytes`` turns the
memory tier into an LRU so a long-running server cannot grow without
bound.  CLI runs keep the default of unbounded memory — a one-shot build
wants every stage hot.

``stats`` counts hits/misses/evictions for tests and benchmark
reporting.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from ..core.serialize import artifact_from_json, artifact_to_json
from ..graph.csr import CSRGraph
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..resil import faults as resil_faults

_M_HITS = obs_metrics.REGISTRY.counter(
    "repro_cache_hits_total", "Artifact cache hits by tier.", ("tier",)
)
_M_MISSES = obs_metrics.REGISTRY.counter(
    "repro_cache_misses_total", "Artifact cache misses."
)
_M_PUTS = obs_metrics.REGISTRY.counter(
    "repro_cache_puts_total", "Artifacts stored in the cache."
)
_M_EVICTIONS = obs_metrics.REGISTRY.counter(
    "repro_cache_evictions_total", "Cache evictions by tier.", ("tier",)
)
_M_BYTES = obs_metrics.REGISTRY.gauge(
    "repro_cache_bytes", "Approximate cache footprint by tier.", ("tier",)
)
_M_CORRUPT = obs_metrics.REGISTRY.counter(
    "repro_cache_corrupt_total",
    "Corrupted/truncated disk-cache envelopes dropped and rebuilt.",
)

__all__ = [
    "ArtifactCache",
    "artifact_nbytes",
    "fingerprint_array",
    "fingerprint_graph",
    "stage_key",
]

PathLike = Union[str, Path]


def _sha256(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def fingerprint_array(arr: np.ndarray) -> str:
    """Content hash of a numpy array (dtype, shape and bytes)."""
    arr = np.ascontiguousarray(arr)
    header = f"{arr.dtype.str}|{arr.shape}".encode()
    return _sha256(header, arr.tobytes())


def fingerprint_graph(graph: CSRGraph) -> str:
    """Content hash of a CSR graph's structure."""
    return _sha256(
        b"csr",
        np.ascontiguousarray(graph.indptr).tobytes(),
        np.ascontiguousarray(graph.indices).tobytes(),
    )


def stage_key(stage: str, params: Dict[str, object], *fingerprints: str) -> str:
    """Cache key of one stage execution: stage name + JSON-able
    parameters + the content fingerprints of its inputs."""
    payload = json.dumps(
        {"stage": stage, "params": params, "inputs": list(fingerprints)},
        sort_keys=True,
    )
    return _sha256(payload.encode())


def artifact_nbytes(value) -> int:
    """Approximate memory footprint of a cached artifact.

    Arrays and array-backed objects (trees, layouts, heightfields)
    report their buffer sizes; anything else falls back to
    ``sys.getsizeof``.  A layout also counts the display tree it holds,
    which stays in memory while the layout is cached even when the
    tree's own entry is evicted (with both cached it counts twice, the
    safe side of a bound).  Used by the cache's LRU accounting — an
    estimate is fine, the bound exists to stop unbounded growth, not to
    meter bytes exactly.
    """
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    total = 0
    seen = False
    for attr in ("parent", "scalars", "height", "node", "cx", "cy", "r"):
        part = getattr(value, attr, None)
        if isinstance(part, np.ndarray):
            total += int(part.nbytes)
            seen = True
    members = getattr(value, "members", None)
    if isinstance(members, list):
        total += sum(
            int(m.nbytes) for m in members if isinstance(m, np.ndarray)
        )
        seen = True
    tree = getattr(value, "tree", None)
    if tree is not None:
        total += artifact_nbytes(tree)
        seen = True
    if seen:
        return total
    return int(sys.getsizeof(value))


class ArtifactCache:
    """In-memory (always) + on-disk (optional) store of stage artifacts.

    Parameters
    ----------
    directory:
        Where to persist serializable artifacts.  ``None`` keeps the
        cache memory-only (still useful: repeated builds in one process
        share artifacts).
    max_memory_bytes:
        LRU budget for the memory tier; ``None`` (the default) keeps it
        unbounded.  Eviction only drops the in-memory copy — entries
        persisted to ``directory`` reload transparently on the next get.

    All memory-tier operations are guarded by an ``RLock``, so one
    instance can back concurrent server handlers and worker threads.
    """

    def __init__(
        self,
        directory: Optional[PathLike] = None,
        max_memory_bytes: Optional[int] = None,
    ) -> None:
        self.directory = Path(directory) if directory else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        if max_memory_bytes is not None and max_memory_bytes < 0:
            raise ValueError("max_memory_bytes must be >= 0 (or None)")
        self.max_memory_bytes = max_memory_bytes
        self._lock = threading.RLock()
        self._memory: "OrderedDict[str, object]" = OrderedDict()
        self._memory_bytes = 0
        self._tally = obs_metrics.Tally(
            misses=_M_MISSES, memory_hits=_M_HITS, disk_hits=_M_HITS,
            puts=_M_PUTS, evictions=_M_EVICTIONS, corrupt=_M_CORRUPT,
        )

    @property
    def stats(self) -> Dict[str, int]:
        """Event counts; ``hits`` is memory plus disk hits."""
        with self._lock:
            counts = dict(self._tally)
        return dict(hits=counts["memory_hits"] + counts["disk_hits"], **counts)

    @classmethod
    def from_env(cls) -> "ArtifactCache":
        """Cache honouring ``$REPRO_CACHE_DIR`` (memory-only if unset)."""
        return cls(os.environ.get("REPRO_CACHE_DIR") or None)

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _remember(self, key: str, value) -> None:
        """Insert into the memory tier (lock held) and evict LRU entries
        past the budget.  The just-inserted entry is never evicted, even
        when it alone exceeds the budget — the caller is about to use it.
        """
        if key in self._memory:
            self._memory_bytes -= artifact_nbytes(self._memory[key])
        self._memory[key] = value
        self._memory.move_to_end(key)
        self._memory_bytes += artifact_nbytes(value)
        if self.max_memory_bytes is None:
            return
        while (
            self._memory_bytes > self.max_memory_bytes
            and len(self._memory) > 1
        ):
            old_key, old_value = self._memory.popitem(last=False)
            self._memory_bytes -= artifact_nbytes(old_value)
            self._tally.inc("evictions", tier="memory")

    @property
    def memory_bytes(self) -> int:
        """Approximate bytes held by the memory tier."""
        with self._lock:
            return self._memory_bytes

    def get(self, key: str):
        """The cached artifact for ``key``, or ``None`` on a miss."""
        if not obs_trace.ENABLED:
            return self._get(key)
        with obs_trace.span("cache.get", key=key[:12]) as sp:
            value = self._get(key)
            sp.set(hit=value is not None)
            return value

    def _get(self, key: str):
        with self._lock:
            if key in self._memory:
                self._memory.move_to_end(key)
                self._tally.inc("memory_hits", tier="memory")
                return self._memory[key]
        if self.directory is not None:
            # Read and parse outside the lock: a multi-MB JSON load must
            # not stall other threads' pure memory hits.
            path = self._path(key)
            try:
                value = artifact_from_json(path.read_text())
            except FileNotFoundError:
                pass
            except Exception:
                # Any corrupted/truncated entry — invalid JSON, a bad
                # envelope shape (KeyError/TypeError), undecodable bytes
                # — is a miss, never an error: drop it so it cannot
                # poison future runs, and let the stage rebuild.
                with self._lock:
                    self._tally.inc("corrupt")
                try:
                    path.unlink(missing_ok=True)
                except OSError:
                    pass
            else:
                with self._lock:
                    self._remember(key, value)
                    self._tally.inc("disk_hits", tier="disk")
                return value
        with self._lock:
            self._tally.inc("misses")
        return None

    def put(self, key: str, value, disk: bool = True):
        """Store ``value`` under ``key``; returns ``value``.

        Persists to disk only when a directory is configured, ``disk``
        is true (stages pass ``False`` for cheap-to-recompute or
        unserializable artifacts), and the value has a serialized form.
        """
        if not obs_trace.ENABLED:
            return self._put(key, value, disk)
        with obs_trace.span("cache.put", key=key[:12], disk=disk):
            return self._put(key, value, disk)

    def _put(self, key: str, value, disk: bool = True):
        with self._lock:
            self._remember(key, value)
            self._tally.inc("puts")
            _M_BYTES.set(self._memory_bytes, tier="memory")
        if self.directory is not None and disk:
            try:
                text = artifact_to_json(value)
            except TypeError:
                return value
            # Write-then-rename so concurrent readers (the cache is
            # meant to be shared across processes) never observe a
            # partially written entry.
            tmp = self._path(key).with_suffix(
                f".tmp{os.getpid()}.{threading.get_ident()}"
            )
            tmp.write_text(text)
            os.replace(tmp, self._path(key))
            # Fault site `cache_corrupt`: truncate the envelope we just
            # wrote, simulating a writer killed mid-write — the next get
            # must treat it as a miss and rebuild.
            if resil_faults.active() and resil_faults.should_fire(
                "cache_corrupt"
            ) is not None:
                resil_faults.corrupt_file(self._path(key))
        return value

    def clear(self, disk: bool = False) -> None:
        """Drop the memory tier (and the disk tier when ``disk=True``)."""
        with self._lock:
            self._memory.clear()
            self._memory_bytes = 0
        if disk and self.directory is not None:
            for path in self.directory.glob("*.json"):
                path.unlink()

    # ------------------------------------------------------------------
    # Disk-tier accounting
    # ------------------------------------------------------------------
    def disk_stats(self) -> Dict[str, int]:
        """Entry count and byte total of the disk tier (both 0 when the
        cache is memory-only).  A glob per call — cheap next to any
        build, but meant for ``/stats``-style instrumentation, not hot
        paths."""
        entries = 0
        nbytes = 0
        if self.directory is not None:
            for path in self.directory.glob("*.json"):
                try:
                    nbytes += path.stat().st_size
                except FileNotFoundError:
                    continue  # concurrently pruned
                entries += 1
        return {"entries": entries, "bytes": nbytes}

    def prune(self, max_bytes: int) -> Dict[str, int]:
        """Shrink the disk tier to at most ``max_bytes`` by deleting the
        least-recently-*written* entries first (mtime order — content
        keys never change, so mtime is creation time and the oldest
        artifacts are the stalest).

        A long-lived server re-keys its artifacts whenever a graph or
        field changes, so without pruning the disk tier grows without
        bound.  Returns ``{"removed", "bytes"}`` — how many entries
        went and how many bytes remain.  Memory-tier entries are
        untouched; a pruned artifact that is requested again is simply
        rebuilt (or re-persisted on its next put).
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        removed = 0
        total = 0
        if self.directory is None:
            return {"removed": 0, "bytes": 0}
        entries = []
        for path in self.directory.glob("*.json"):
            try:
                stat = path.stat()
            except FileNotFoundError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()  # oldest first
        total = sum(size for __, size, __p in entries)
        for __, size, path in entries:
            if total <= max_bytes:
                break
            path.unlink(missing_ok=True)
            total -= size
            removed += 1
        if removed:
            _M_EVICTIONS.inc(removed, tier="disk")
        _M_BYTES.set(total, tier="disk")
        return {"removed": removed, "bytes": total}

    def refresh_metrics(self) -> None:
        """Push the current tier footprints into the global byte gauges.

        Puts and prunes keep the gauges fresh on the write path; this is
        the scrape-time refresh (``/metrics``, ``--metrics``) so a
        read-only process still reports accurate tier sizes."""
        _M_BYTES.set(self.memory_bytes, tier="memory")
        _M_BYTES.set(self.disk_stats()["bytes"], tier="disk")

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def __repr__(self) -> str:
        where = str(self.directory) if self.directory else "memory-only"
        return (
            f"ArtifactCache({where}, entries={len(self)}, "
            f"hits={self.stats['hits']}, misses={self.stats['misses']})"
        )
