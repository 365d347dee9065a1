"""Out-of-core edge scatter: stream an on-disk edge list into shards.

The scatter never materializes the full edge array:
:func:`scatter_edge_list` makes (at most) two streaming passes over the
file via :func:`repro.graph.io.iter_edge_chunks`:

1. a **counting pre-pass** — max vertex id, canonical edge count and
   the degree vector (all O(n)+O(chunk), never O(m)) — needed by the
   ``range`` and ``degree`` partitioners and by every shard manifest
   (``hash`` also uses it so all three methods emit identical
   manifests);
2. the **scatter pass** — each chunk is canonicalised (self-loops
   dropped, ``u < v``), routed through the same vectorized assigners
   the in-memory partitioner uses, and appended to per-shard buffers
   that flush to raw int64 sidecar files whenever the total buffered
   bytes would exceed ``max_buffer_bytes``.

Peak memory is therefore ``max(max_buffer_bytes, one chunk)`` plus the
O(n) vertex-sized vectors — the bound
:data:`ScatterResult.stats`\\ ``["peak_buffered_bytes"]`` records and
``benchmarks/bench_dist_scaling.py`` asserts.  The build that follows
is not bounded this way: :func:`load_shards` returns every shard's
edges at once.

Duplicate edges are *kept per shard* (deduplication would need global
state); every consumer builds CSR fragments through
:func:`~repro.graph.builders.from_edge_array`, which collapses them,
and the merge scan is idempotent under repeats — so scatter output
builds the same tree as an in-memory partition of the deduplicated
graph, except under the ``range`` partitioner where shard *placement*
(not the merged result) can differ for files with duplicates.  The one
duplicate-sensitive consumer is the per-shard ``degree`` field merge,
which collapses repeats within each shard only; ``range`` shards are
therefore marked ``dedup_safe: false`` in their manifests and the
field merge refuses them (the field is computed globally instead) —
``hash``/``degree`` route every copy of a pair to one shard and stay
mergeable.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..graph.io import DEFAULT_CHUNK_EDGES, iter_edge_chunks
from ..obs import metrics as obs_metrics
from ..resil import faults as resil_faults
from ..resil.retry import note_giveup, note_retry
from .partition import (
    PARTITIONERS,
    Shard,
    assign_degree,
    assign_hash,
    assign_range,
    degree_owners,
)

__all__ = [
    "ScatterResult",
    "ShardIntegrityError",
    "scatter_edge_list",
    "load_shards",
    "resilient_scatter",
]

PathLike = Union[str, Path]

_MANIFEST_SUFFIX = ".manifest.json"
_EDGES_SUFFIX = ".edges.i64"
_QUARANTINE_SUFFIX = ".quarantined"

_M_QUARANTINED = obs_metrics.REGISTRY.counter(
    "repro_resil_quarantined_total",
    "Shard fragments quarantined after a failed integrity check.",
    ("reason",),
)


class ShardIntegrityError(ValueError):
    """One or more shard fragments failed their manifest integrity check
    (missing sidecar, wrong edge count, bad sha256).  The offending
    sidecars are quarantined (renamed ``*.quarantined``) before this is
    raised, so a re-scatter writes fresh fragments.

    Subclasses ``ValueError`` so legacy ``except ValueError`` call
    sites keep working.
    """

    def __init__(self, message: str, bad_shards=()) -> None:
        super().__init__(message)
        self.bad_shards = tuple(bad_shards)


class ScatterResult:
    """What a scatter produced: the shard directory plus its stats.

    Attributes
    ----------
    directory:
        Where the per-shard sidecars and manifests live.
    manifests:
        One ``repro-dist-shard/1`` dict per shard, in shard-id order.
    stats:
        ``n_edges`` (canonical edges routed), ``n_vertices``,
        ``chunks`` (chunks streamed in the scatter pass), ``flushes``
        (buffer spills), ``peak_buffered_bytes`` (high-water mark of
        the shard buffers — the memory bound), ``buffer_limit_bytes``.
    """

    def __init__(
        self,
        directory: Path,
        manifests: List[Dict[str, object]],
        stats: Dict[str, int],
    ) -> None:
        self.directory = directory
        self.manifests = manifests
        self.stats = stats

    def load(self) -> List[Shard]:
        """Read the scattered shards back (see :func:`load_shards`)."""
        return load_shards(self.directory)

    def __repr__(self) -> str:
        return (
            f"ScatterResult({str(self.directory)!r}, "
            f"shards={len(self.manifests)}, "
            f"peak_buffered_bytes={self.stats['peak_buffered_bytes']})"
        )


def _canonicalise(chunk: np.ndarray) -> np.ndarray:
    """Per-chunk canonical form: self-loops out, ``u < v``."""
    chunk = chunk[chunk[:, 0] != chunk[:, 1]]
    lo = np.minimum(chunk[:, 0], chunk[:, 1])
    hi = np.maximum(chunk[:, 0], chunk[:, 1])
    return np.column_stack([lo, hi])


def scatter_edge_list(
    path: PathLike,
    n_shards: int,
    out_dir: PathLike,
    *,
    method: str = "hash",
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    max_buffer_bytes: int = 8 << 20,
    n_vertices: Optional[int] = None,
) -> ScatterResult:
    """Stream ``path`` into ``n_shards`` on-disk shard fragments.

    Parameters
    ----------
    path:
        SNAP-style edge-list file.
    n_shards, method:
        Partition width and partitioner (``hash``/``range``/``degree``).
    chunk_edges:
        Streaming granularity (edges per parsed chunk).
    max_buffer_bytes:
        Flush the shard buffers to disk once they hold more than this
        many bytes; the scatter's peak buffered memory never exceeds
        ``max(max_buffer_bytes, one chunk)``.
    n_vertices:
        Global vertex count; defaults to ``max id + 1`` from the
        counting pre-pass (pass it explicitly for trailing isolated
        vertices).
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if method not in PARTITIONERS:
        raise ValueError(
            f"unknown partitioner {method!r}; choose from "
            f"{', '.join(PARTITIONERS)}"
        )
    if max_buffer_bytes < 1:
        raise ValueError("max_buffer_bytes must be >= 1")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()

    # ---- pass 1: counting (degrees, canonical edge count, max id) ----
    degrees = np.zeros(1024, dtype=np.int64)
    n_edges_total = 0
    max_id = -1
    for chunk in iter_edge_chunks(path, chunk_edges):
        chunk = _canonicalise(chunk)
        if not len(chunk):
            continue
        top = int(chunk.max())
        if top >= len(degrees):
            grown = np.zeros(max(top + 1, 2 * len(degrees)), dtype=np.int64)
            grown[: len(degrees)] = degrees
            degrees = grown
        np.add.at(degrees, chunk[:, 0], 1)
        np.add.at(degrees, chunk[:, 1], 1)
        n_edges_total += len(chunk)
        max_id = max(max_id, top)
    n = (max_id + 1) if n_vertices is None else int(n_vertices)
    if max_id >= n:
        raise ValueError(
            f"edge endpoints reach id {max_id} but n_vertices={n}"
        )
    degrees = degrees[:n] if len(degrees) >= n else np.concatenate(
        [degrees, np.zeros(n - len(degrees), dtype=np.int64)]
    )
    owners = (
        degree_owners(degrees, n_shards) if method == "degree" else None
    )

    # ---- pass 2: scatter with bounded buffers ------------------------
    buffers: List[List[np.ndarray]] = [[] for _ in range(n_shards)]
    buffered_bytes = 0
    peak_buffered = 0
    counts = np.zeros(n_shards, dtype=np.int64)
    hashes = [hashlib.sha256(b"dist-shard") for _ in range(n_shards)]
    seen_in = [
        np.zeros(n, dtype=bool) for _ in range(n_shards)
    ]  # per-shard vertex incidence, for the boundary record
    handles = [
        open(out_dir / f"shard_{s:04d}{_EDGES_SUFFIX}", "wb")
        for s in range(n_shards)
    ]
    n_chunks = 0
    n_flushes = 0

    def flush() -> None:
        nonlocal buffered_bytes, n_flushes
        for s, parts in enumerate(buffers):
            if not parts:
                continue
            block = np.ascontiguousarray(np.concatenate(parts))
            hashes[s].update(block.tobytes())
            block.tofile(handles[s])
            buffers[s] = []
        if buffered_bytes:
            n_flushes += 1
        buffered_bytes = 0

    try:
        offset = 0
        for chunk in iter_edge_chunks(path, chunk_edges):
            chunk = _canonicalise(chunk)
            if not len(chunk):
                continue
            n_chunks += 1
            if method == "hash":
                ids = assign_hash(chunk, n_shards)
            elif method == "range":
                ids = assign_range(
                    offset + np.arange(len(chunk)), n_edges_total, n_shards
                )
            else:
                ids = assign_degree(chunk, owners, degrees)
            offset += len(chunk)
            # Flush *before* the chunk that would overflow, so peak
            # buffered bytes never exceed max(max_buffer_bytes, one
            # chunk) — the bound the scaling benchmark asserts.
            if buffered_bytes and buffered_bytes + chunk.nbytes > \
                    max_buffer_bytes:
                flush()
            for s in np.unique(ids).tolist():
                part = chunk[ids == s]
                buffers[s].append(part)
                buffered_bytes += part.nbytes
                counts[s] += len(part)
                seen_in[s][part.ravel()] = True
            peak_buffered = max(peak_buffered, buffered_bytes)
        flush()
    finally:
        for handle in handles:
            handle.close()

    # Boundary: vertices incident to >= 2 shards.
    incidence = np.zeros(n, dtype=np.int64)
    for mask in seen_in:
        incidence += mask
    shared = incidence >= 2

    manifests: List[Dict[str, object]] = []
    for s in range(n_shards):
        manifest = {
            "format": "repro-dist-shard/1",
            "shard_id": s,
            "n_shards": n_shards,
            "n_vertices": n,
            "n_edges": int(counts[s]),
            "method": method,
            # hash/degree route every copy of a pair to one shard;
            # range splits by file position, so duplicate copies can
            # straddle a boundary (see Shard.dedup_safe).
            "dedup_safe": method != "range",
            "boundary_vertices": int(np.count_nonzero(shared & seen_in[s])),
            "sha256": hashes[s].hexdigest(),
        }
        (out_dir / f"shard_{s:04d}{_MANIFEST_SUFFIX}").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )
        manifests.append(manifest)
    np.flatnonzero(shared).astype(np.int64).tofile(
        str(out_dir / "boundary.i64")
    )

    stats = {
        "n_edges": int(n_edges_total),
        "n_vertices": n,
        "chunks": n_chunks,
        "flushes": n_flushes,
        "peak_buffered_bytes": int(peak_buffered),
        "buffer_limit_bytes": int(max_buffer_bytes),
        "scatter_seconds": time.perf_counter() - t_start,
    }

    # Fault sites `fragment_corrupt` / `fragment_truncate`: damage one
    # just-written sidecar (rule param selects the shard, default 0) so
    # the next load fails its sha256/count check and quarantines it.
    if resil_faults.active():
        for site, mode in (
            ("fragment_corrupt", "corrupt"),
            ("fragment_truncate", "truncate"),
        ):
            rule = resil_faults.should_fire(site)
            if rule is None:
                continue
            target = int(rule.param) % n_shards if rule.param else 0
            resil_faults.corrupt_file(
                out_dir / f"shard_{target:04d}{_EDGES_SUFFIX}", mode=mode
            )
    return ScatterResult(out_dir, manifests, stats)


def _quarantine(path: Path, reason: str) -> None:
    """Move a bad sidecar out of the way so a re-scatter starts clean
    and repeated loads cannot keep tripping over the same bytes."""
    try:
        os.replace(path, path.with_name(path.name + _QUARANTINE_SUFFIX))
    except OSError:
        pass  # e.g. the sidecar is missing entirely
    _M_QUARANTINED.inc(reason=reason)


def _check_shard(directory: Path, manifest_path: Path, doc: dict,
                 shared: np.ndarray) -> Shard:
    """Load + integrity-check one shard; ShardIntegrityError on damage."""
    shard_id = doc.get("shard_id", "?")
    stem = manifest_path.name[: -len(_MANIFEST_SUFFIX)]
    sidecar = directory / f"{stem}{_EDGES_SUFFIX}"
    try:
        edges = np.fromfile(str(sidecar), dtype=np.int64).reshape(-1, 2)
    except OSError as exc:
        raise ShardIntegrityError(
            f"shard {shard_id}: edge sidecar missing or unreadable "
            f"({exc})", bad_shards=(shard_id,)
        ) from None
    except ValueError:
        raise ShardIntegrityError(
            f"shard {shard_id}: sidecar holds a partial number of "
            f"edges (truncated write?)", bad_shards=(shard_id,)
        ) from None
    if len(edges) != doc["n_edges"]:
        raise ShardIntegrityError(
            f"shard {shard_id}: sidecar holds {len(edges)} "
            f"edges, manifest says {doc['n_edges']}",
            bad_shards=(shard_id,),
        )
    digest = hashlib.sha256(b"dist-shard")
    digest.update(np.ascontiguousarray(edges).tobytes())
    if digest.hexdigest() != doc["sha256"]:
        raise ShardIntegrityError(
            f"shard {shard_id}: edge sidecar does not match "
            "its manifest fingerprint",
            bad_shards=(shard_id,),
        )
    mask = np.zeros(doc["n_vertices"], dtype=bool)
    mask[edges.ravel()] = True
    return Shard(
        shard_id=doc["shard_id"],
        n_shards=doc["n_shards"],
        n_vertices=doc["n_vertices"],
        edges=edges,
        boundary=shared[mask[shared]],
        method=doc["method"],
        dedup_safe=bool(doc.get("dedup_safe", True)),
    )


def load_shards(directory: PathLike) -> List[Shard]:
    """Load every scattered shard in ``directory`` back into memory.

    Each shard's edge sidecar is checked against the manifest's SHA-256
    and edge count before use; a mismatch (truncated write, flipped
    bytes, a missing sidecar next to a live manifest) **quarantines**
    the sidecar and raises :class:`ShardIntegrityError` naming every
    damaged shard — callers re-scatter (see :func:`resilient_scatter`)
    rather than build a wrong tree.
    """
    directory = Path(directory)
    manifest_paths = sorted(directory.glob(f"*{_MANIFEST_SUFFIX}"))
    if not manifest_paths:
        raise FileNotFoundError(f"no shard manifests under {directory}")
    boundary_path = directory / "boundary.i64"
    shared = (
        np.fromfile(str(boundary_path), dtype=np.int64)
        if boundary_path.exists()
        else np.empty(0, dtype=np.int64)
    )
    shards: List[Shard] = []
    problems: List[str] = []
    bad: List[object] = []
    for manifest_path in manifest_paths:
        try:
            doc = json.loads(manifest_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            _quarantine(manifest_path, "bad_manifest")
            problems.append(f"{manifest_path.name}: unreadable ({exc})")
            continue
        if doc.get("format") != "repro-dist-shard/1":
            raise ValueError(f"not a shard manifest: {manifest_path}")
        stem = manifest_path.name[: -len(_MANIFEST_SUFFIX)]
        try:
            shards.append(
                _check_shard(directory, manifest_path, doc, shared)
            )
        except ShardIntegrityError as exc:
            _quarantine(directory / f"{stem}{_EDGES_SUFFIX}", "bad_fragment")
            problems.append(str(exc))
            bad.extend(exc.bad_shards)
    if problems:
        raise ShardIntegrityError("; ".join(problems), bad_shards=bad)
    return shards


def resilient_scatter(
    path: PathLike,
    n_shards: int,
    out_dir: PathLike,
    max_attempts: int = 3,
    **kwargs,
) -> "Tuple[ScatterResult, List[Shard]]":
    """Scatter + load with quarantine-and-re-scatter healing.

    A :class:`ShardIntegrityError` from the verification load (bad
    sha256, truncated or missing fragment — including injected
    ``fragment_corrupt`` faults) triggers a full re-scatter: the damaged
    sidecars are already quarantined, the fresh pass rewrites every
    fragment, and fault-schedule occurrence counters have advanced, so
    bounded fault schedules heal deterministically.  Returns the final
    ``(ScatterResult, shards)``.
    """
    failures = 0
    while True:
        result = scatter_edge_list(path, n_shards, out_dir, **kwargs)
        try:
            return result, result.load()
        except ShardIntegrityError:
            failures += 1
            if failures >= max_attempts:
                note_giveup("dist.scatter")
                raise
            note_retry("dist.scatter")
