"""Sharded scalar-tree construction: reduce, merge, splice.

Algorithm 1 is, operationally, a union-find scan over edges ordered by
the later-processed endpoint's rank (:mod:`repro.accel.tree`).  Two
facts make it shard-decomposable **without approximation**:

1. *within one item's merge group the result is order-invariant* (the
   accel module's equivalence argument), so edges may be regrouped
   freely as long as the scan stays sorted by rank; and
2. *redundant edges never touch the tree*: an edge whose endpoints are
   already connected by lower-rank edges causes no parent assignment.
   If a shard-local scan finds an edge redundant using only the shard's
   own lower-rank edges, that edge is redundant in the global scan too
   (the global prefix is a superset), so it can be dropped before the
   merge — the distributed-connectivity / filter-Kruskal argument.

:func:`reduce_shard` therefore runs the scan over one shard's edges and
keeps exactly the merge-causing ones — the shard's **merge forest**, at
most ``n - 1`` edges however many the shard holds.  Replaying the
concatenated merge forests through one global
:func:`~repro.accel.tree.vertex_tree_parents` scan yields a parent
array *identical node-for-node* to the single-process build
(``tests/dist/test_merge_identity.py`` enforces this across
partitioners × measures).  The final tree is assembled through the
splice hook (:meth:`~repro.core.scalar_tree.ScalarTree.spliced`): the
largest shard's local forest (recoverable from its merge forest alone)
is taken as the base and only the parents the cross-shard interleaving
actually moved are patched in.

:func:`build_tree` reduces the shards one after another in the calling
thread.  Per-shard merge forests are content-hash cached
(:class:`~repro.engine.cache.ArtifactCache`), so a warm re-run only
re-reduces shards whose edges or field actually changed.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..accel.tree import merge_scan_keep, rank_order, vertex_tree_parents
from ..core.scalar_tree import ScalarTree
from ..engine.cache import fingerprint_array, stage_key
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .partition import Shard, cut_vertices

__all__ = [
    "DIST_FIELD_MERGERS",
    "build_tree",
    "merged_field",
    "reduce_shard",
    "shard_degree",
]

_M_BUILDS = obs_metrics.REGISTRY.counter(
    "repro_dist_builds_total", "Sharded tree builds."
)
_M_REDUCE_JOBS = obs_metrics.REGISTRY.counter(
    "repro_dist_reduce_jobs_total", "Per-shard merge-forest reduce jobs run."
)
_M_REDUCE_HITS = obs_metrics.REGISTRY.counter(
    "repro_dist_reduce_cache_hits_total",
    "Per-shard merge forests served from the artifact cache.",
)
_M_REDUCE_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_dist_reduce_seconds", "Wall time of one build's shard reductions."
)
_M_MERGE_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_dist_merge_seconds", "Global merge + splice time per build."
)
_M_POISONED = obs_metrics.REGISTRY.counter(
    "repro_resil_poisoned_forests_total",
    "Cached shard merge forests that failed validation and were "
    "re-derived from the shard's edges.",
)


def _valid_forest(forest, n_vertices: int) -> bool:
    """Cheap structural check of a cached merge forest: a ``(k, 2)``
    int array, ``k <= n - 1``, endpoints in range.  A corrupted disk
    envelope that still deserializes must be re-derived, not merged."""
    if not isinstance(forest, np.ndarray):
        return False
    if forest.ndim != 2 or forest.shape[1] != 2:
        return False
    if forest.dtype.kind not in "iu":
        return False
    if len(forest) > max(0, n_vertices - 1):
        return False
    if len(forest) and (
        int(forest.min()) < 0 or int(forest.max()) >= n_vertices
    ):
        return False
    return True


def reduce_shard(
    n_vertices: int, edges: np.ndarray, rank: np.ndarray
) -> np.ndarray:
    """One shard's merge forest: the edges that merge disjoint subtrees
    when the shard is scanned alone in global rank order.

    Returns a ``(k, 2)`` subset of ``edges`` (``k <= n_vertices - 1``).
    Replaying it alone reproduces the shard-local forest exactly, and
    concatenated with the other shards' forests it reproduces the
    global tree exactly (module docstring).
    """
    if len(edges) == 0:
        return np.empty((0, 2), dtype=np.int64)
    pairs = np.asarray(edges, dtype=np.int64)
    ra = rank[pairs[:, 0]]
    rb = rank[pairs[:, 1]]
    later = ra > rb
    cur = np.where(later, pairs[:, 0], pairs[:, 1])
    prev = np.where(later, pairs[:, 1], pairs[:, 0])
    eorder = np.argsort(np.maximum(ra, rb))

    # The merge scan of repro.accel.tree, tracking which steps merged
    # instead of materialising parents (same union-find: path halving +
    # union by size, group-root caching).  merge_scan_keep dispatches
    # to the compiled native kernel when the backend allows.
    kept = merge_scan_keep(n_vertices, cur[eorder], prev[eorder])
    if not len(kept):
        return np.empty((0, 2), dtype=np.int64)
    return np.ascontiguousarray(pairs[eorder[kept]])


def shard_degree(n_vertices: int, edges: np.ndarray) -> np.ndarray:
    """Per-shard degree contribution (duplicates within the shard are
    collapsed, matching CSR construction)."""
    edges = np.asarray(edges, dtype=np.int64)
    if len(edges):
        canon = np.unique(
            edges[:, 0] * np.int64(n_vertices) + edges[:, 1]
        )
        edges = np.column_stack(
            [canon // n_vertices, canon % n_vertices]
        )
    return np.bincount(edges.ravel(), minlength=n_vertices).astype(
        np.float64
    )


#: Measures whose field is an exact sum of per-shard contributions over
#: an edge partition.  Anything else computes its field globally (the
#: scalar field must be *global* for the tree to be identical — a
#: shard-local k-core number is simply a different field).
DIST_FIELD_MERGERS: Dict[str, object] = {"degree": shard_degree}


def _shard_forest(
    index: int, shard: Shard, rank: np.ndarray, cache, scalars_fp
) -> np.ndarray:
    """One shard's merge forest: from the cache when a valid entry
    exists, else reduced here (and cached)."""
    n = shard.n_vertices
    with obs_trace.span(
        "dist.reduce_shard", shard=index, edges=int(shard.n_edges)
    ) as sp:
        key = None
        if cache is not None:
            key = stage_key(
                "dist-reduce",
                {"method": shard.method, "n_shards": shard.n_shards},
                shard.fingerprint(),
                scalars_fp,
            )
            hit = cache.get(key)
            if hit is not None:
                if _valid_forest(hit, n):
                    _M_REDUCE_HITS.inc()
                    sp.set(cached=True)
                    return hit
                # A poisoned reduction (corrupt disk envelope that
                # still parsed, wrong shape, out-of-range ids) is
                # re-derived from the shard's own edges; the put below
                # overwrites the bad entry.
                _M_POISONED.inc()
        _M_REDUCE_JOBS.inc()
        forest = reduce_shard(n, shard.edges, rank)
        if key is not None:
            cache.put(key, forest)
        return forest


def build_tree(
    scalars: np.ndarray,
    shards: Sequence[Shard],
    *,
    cache=None,
    scalars_fingerprint: Optional[str] = None,
) -> Tuple[ScalarTree, Dict[str, object]]:
    """The global vertex scalar tree of ``scalars`` over the union of
    the shards' edges — node-for-node identical to
    :func:`~repro.core.scalar_tree.build_vertex_tree` on the whole
    graph — and a summary of the build (shard sizes, cut vertices,
    merge-forest edges, spliced parents).

    ``cache`` (an :class:`~repro.engine.cache.ArtifactCache`) enables
    per-shard merge-forest reuse, keyed by each shard's fingerprint and
    ``scalars_fingerprint`` (computed from ``scalars`` when omitted).
    """
    if not shards:
        raise ValueError("at least one shard is required")
    n = shards[0].n_vertices
    scalars = np.asarray(scalars, dtype=np.float64)
    if len(scalars) != n:
        raise ValueError(
            f"scalar field has {len(scalars)} entries for "
            f"{n} vertices"
        )
    if cache is not None and scalars_fingerprint is None:
        scalars_fingerprint = fingerprint_array(scalars)
    _M_BUILDS.inc()
    with obs_trace.span(
        "dist.build_tree", n_shards=len(shards), n_vertices=int(n)
    ):
        __, rank = rank_order(scalars)
        with _M_REDUCE_SECONDS.time():
            forests: List[np.ndarray] = [
                _shard_forest(i, shard, rank, cache, scalars_fingerprint)
                for i, shard in enumerate(shards)
            ]

        t0 = time.perf_counter()
        # Base: the largest shard's local forest, recovered from its
        # merge forest alone (the reduction preserves it exactly).
        base = max(range(len(shards)), key=lambda i: shards[i].n_edges)
        base_parent = vertex_tree_parents(n, forests[base], rank)
        reduced = (
            np.concatenate(forests)
            if any(len(f) for f in forests)
            else np.empty((0, 2), dtype=np.int64)
        )
        global_parent = vertex_tree_parents(n, reduced, rank)
        changed = np.flatnonzero(base_parent != global_parent)
        tree = ScalarTree(base_parent, scalars, kind="vertex").spliced(
            changed, global_parent[changed]
        )
        _M_MERGE_SECONDS.observe(time.perf_counter() - t0)
    summary = {
        "n_shards": len(shards),
        "method": shards[0].method,
        "shard_edges": [int(s.n_edges) for s in shards],
        "boundary_vertices": cut_vertices(shards),
        "reduced_edges": int(len(reduced)),
        "spliced_parents": int(len(changed)),
    }
    return tree, summary


def merged_field(
    measure: str, shards: Sequence[Shard]
) -> Optional[np.ndarray]:
    """The global field of a shard-mergeable measure, summed from
    per-shard contributions; ``None`` when ``measure`` cannot be merged
    over an edge partition (the caller computes it globally)."""
    job = DIST_FIELD_MERGERS.get(measure)
    if job is None or not shards:
        return None
    if not all(shard.dedup_safe for shard in shards):
        # Duplicate copies of an edge may straddle shards (range
        # scatter of a raw file); per-shard dedup would then count
        # them twice.  Correctness first: make the caller compute the
        # field globally.
        return None
    n = shards[0].n_vertices
    total = np.zeros(n, dtype=np.float64)
    for shard in shards:
        total += job(n, shard.edges)
    return total
