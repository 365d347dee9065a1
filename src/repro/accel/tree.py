"""Edge-ordered scalar-tree construction kernels (Algorithms 1 and 3).

The textbook builds (kept as oracles in ``tests/accel/oracles.py``)
walk the full adjacency of every item through
:func:`~repro.core.scalar_tree.attach_vertex`, visiting each undirected
edge **twice** and paying a Python-level rank comparison per visit.
The kernels here restructure the same computation around the edges:

1. every undirected edge is attributed, vectorized, to the endpoint
   processed *later* (larger rank) — exactly the visits the adjacency
   scan acts on, so each edge is visited **once** and the rank test
   vanishes from the inner loop;
2. the edges are pre-sorted once (stable argsort on the later
   endpoint's rank) so a single flat :func:`merge_scan` replays them in
   processing order;
3. the scan runs union-find with path halving + union by size over
   flat int64 state arrays materialized once per build (and handed to
   the scan as machine ints — CPython's fastest representation for the
   inherently sequential find loops) — or, on the ``native`` tier, over
   the same arrays zero-copy through the compiled C scan of
   :mod:`repro.accel.native`, which removes the interpreter from the
   one loop vectorization cannot reach.

The result is **byte-identical** to the adjacency scan: within one
item's merge group, every distinct already-built subtree root gets the
current item as parent exactly once regardless of the order the
group's edges are replayed in (the roots were fixed before the group
started, and re-encounters of an already-merged subtree are skipped),
so attributing edges instead of scanning adjacency cannot change a
single parent pointer.  ``tests/accel/test_tree_equivalence.py``
enforces this property-wise — oracle ≡ vector ≡ native — including
disconnected graphs and duplicate scalars.
"""

from __future__ import annotations

import numpy as np

from . import resolve as _resolve
from . import native as _native

__all__ = [
    "merge_scan",
    "rank_order",
    "vertex_tree_parents",
    "edge_tree_parents",
]


# ----------------------------------------------------------------------
# rank_order
# ----------------------------------------------------------------------
def rank_order(scalars: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Processing order and rank permutation for a scalar vector.

    Items are processed in decreasing scalar order, ties broken by
    ascending item id (``np.lexsort``), so every build agrees
    bit-for-bit on ties.
    """
    arr = np.asarray(scalars)
    n = len(arr)
    order = np.lexsort((np.arange(n), -arr))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return order, rank


# ----------------------------------------------------------------------
# The merge scans
# ----------------------------------------------------------------------
def merge_scan(n_items: int, cur: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """Replay pre-ordered merge steps; return the forest's parent array.

    ``cur[i]`` is the item being processed at step ``i`` and ``prev[i]``
    an already-processed item it touches; steps must be sorted by the
    processing order of ``cur``.  Each step that joins two distinct
    subtrees re-roots the older one under ``cur[i]`` — one flat scan
    shared by the vertex-tree (Algorithm 1) and edge-tree (Algorithm 3)
    builds.  The ``native`` tier runs the compiled C kernel; ``vector``,
    or a failed compile, runs the Python scan below — byte-identical.
    """
    if _resolve(native=True) == "native":
        parent = _native.merge_scan(n_items, cur, prev)
        if parent is not None:
            return parent
    parent = [-1] * n_items
    uf = list(range(n_items))
    size = [1] * n_items
    tree_root = list(range(n_items))
    # A group's current item opens as a union-find singleton (nothing
    # merges with an item before its own processing turn), so its set
    # representative starts as itself — no find — and is then maintained
    # directly through the group's unions.  Only the already-processed
    # side of each step ever walks a find chain.
    prev_cur = -1
    root_v = -1
    for v, w in zip(cur.tolist(), prev.tolist()):
        if v != prev_cur:
            prev_cur = v
            root_v = v
        x = w
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        if root_v != x:
            parent[tree_root[x]] = v
            if size[root_v] < size[x]:
                root_v, x = x, root_v
            uf[x] = root_v
            size[root_v] += size[x]
            tree_root[root_v] = v
    return np.array(parent, dtype=np.int64)


def vertex_tree_parents(
    n_vertices: int, edge_pairs: np.ndarray, rank: np.ndarray
) -> np.ndarray:
    """Algorithm 1 parents via the edge-ordered merge scan.

    ``edge_pairs`` is an ``(m, 2)`` array of undirected edges and
    ``rank`` the processing rank per vertex (see :func:`rank_order`).
    """
    if len(edge_pairs) == 0:
        return np.full(n_vertices, -1, dtype=np.int64)
    pairs = np.asarray(edge_pairs, dtype=np.int64)
    ra = rank[pairs[:, 0]]
    rb = rank[pairs[:, 1]]
    later = ra > rb
    cur = np.where(later, pairs[:, 0], pairs[:, 1])
    prev = np.where(later, pairs[:, 1], pairs[:, 0])
    # Stability is unnecessary: the merge result is invariant to the
    # order of one item's edges (see the module docstring).
    eorder = np.argsort(np.maximum(ra, rb))
    return merge_scan(n_vertices, cur[eorder], prev[eorder])


def edge_tree_parents(
    n_vertices: int, edge_pairs: np.ndarray, rank: np.ndarray
) -> np.ndarray:
    """Algorithm 3 parents via the same merge scan.

    Items are dense edge ids; ``rank`` is the per-edge processing rank.
    ``min_id_edge`` (each vertex's first-processed incident edge —
    Proposition 3's sufficient candidate set) is computed with one
    ``np.minimum.at`` pass instead of a Python scan, then each edge's
    two candidates are filtered and ordered vectorized.
    """
    m = len(edge_pairs)
    if m == 0:
        return np.full(0, dtype=np.int64, fill_value=-1)
    pairs = np.asarray(edge_pairs, dtype=np.int64)
    order = np.argsort(rank)  # rank r -> edge id (a permutation)
    best_rank = np.full(n_vertices, m, dtype=np.int64)
    np.minimum.at(best_rank, pairs[:, 0], rank)
    np.minimum.at(best_rank, pairs[:, 1], rank)
    # Every endpoint of an edge has an incident edge, so best_rank < m
    # wherever it is indexed below.
    cand = np.stack(
        [order[best_rank[pairs[:, 0]]], order[best_rank[pairs[:, 1]]]],
        axis=1,
    )  # (m, 2): min_id_edge of each endpoint
    rows = order  # edges in processing order
    cand_rows = cand[rows]
    keep = rank[cand_rows] < rank[rows][:, None]
    cur = np.repeat(rows, 2)[keep.ravel()]
    prev = cand_rows.ravel()[keep.ravel()]
    return merge_scan(m, cur, prev)
