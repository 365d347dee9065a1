"""Frontier-at-a-time traversal kernels over CSR arrays.

Textbook centrality code runs one Python ``deque`` BFS per source, and
the textbook k-core peel removes one vertex at a time (both kept as
oracles in ``tests/accel/oracles.py``).  The kernels here
process a whole BFS frontier (or a whole peel level) per step with
numpy gathers: neighbour lists of the entire frontier are pulled in one
``indptr``-arithmetic gather (``np.repeat`` over degree counts), the
visited test is one mask, and peeling decrements arrive via
``np.add.at`` scatters.

Everything takes flat ``indptr``/``indices`` arrays (not a
:class:`~repro.graph.csr.CSRGraph`), and the multi-source kernels take
an explicit source list, so :mod:`repro.measures.centrality` calls
them directly on its graph's arrays and its own sources.

Equivalence to the oracles (``tests/accel/``): BFS distances, and
hence harmonic/closeness values, are byte-identical (same masked-sum
expression over the same integer distances); k-core numbers are
identical (the decomposition is peel-order-independent); Brandes
betweenness accumulates partial dependencies in a different order, so
it agrees to ``atol=1e-9``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "bfs_distances",
    "harmonic_values",
    "closeness_values",
    "betweenness_accumulate",
    "core_numbers_vector",
]


def _frontier_neighbors(
    indptr: np.ndarray, indices: np.ndarray, frontier: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """All adjacency entries of ``frontier`` as ``(sources, targets)``.

    One gather for the whole frontier: positions are ``arange`` offsets
    into each vertex's CSR slice, laid out with ``np.repeat``.
    """
    starts = indptr[frontier]
    counts = indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    csum = np.cumsum(counts)
    pos = np.arange(total, dtype=np.int64) + np.repeat(starts - (csum - counts), counts)
    return np.repeat(frontier, counts), indices[pos]


def bfs_distances(
    indptr: np.ndarray, indices: np.ndarray, source: int
) -> np.ndarray:
    """Hop distance from ``source`` to every vertex (−1 if unreachable)."""
    n = len(indptr) - 1
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    d = 0
    while frontier.size:
        __, nbrs = _frontier_neighbors(indptr, indices, frontier)
        fresh = nbrs[dist[nbrs] < 0]
        if fresh.size == 0:
            break
        d += 1
        dist[fresh] = d
        frontier = np.unique(fresh)
    return dist


def harmonic_values(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Harmonic centrality of each source (full length-n vector, zeros
    elsewhere); ``sources=None`` means every vertex."""
    n = len(indptr) - 1
    out = np.zeros(n)
    iterable = range(n) if sources is None else sources
    for v in iterable:
        dist = bfs_distances(indptr, indices, int(v))
        pos = dist > 0
        out[v] = float((1.0 / dist[pos]).sum())
    return out


def closeness_values(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Wasserman–Faust closeness of each source (zeros elsewhere)."""
    n = len(indptr) - 1
    out = np.zeros(n)
    iterable = range(n) if sources is None else sources
    for v in iterable:
        dist = bfs_distances(indptr, indices, int(v))
        reach = dist >= 0
        r = int(reach.sum())
        total = int(dist[reach].sum())
        if total > 0 and n > 1:
            out[v] = ((r - 1) / (n - 1)) * ((r - 1) / total)
    return out


def betweenness_accumulate(
    indptr: np.ndarray,
    indices: np.ndarray,
    sources: Sequence[int],
) -> np.ndarray:
    """Unscaled Brandes dependency sums from ``sources``.

    Level-synchronous: the forward pass grows whole BFS levels
    (shortest-path counts ``sigma`` scattered per level with
    ``np.add.at``), the backward pass folds dependencies level by level.
    The caller applies pair-count/sampling scaling.
    """
    n = len(indptr) - 1
    bc = np.zeros(n)
    for s in sources:
        s = int(s)
        dist = np.full(n, -1, dtype=np.int64)
        sigma = np.zeros(n)
        dist[s] = 0
        sigma[s] = 1.0
        levels: List[np.ndarray] = [np.array([s], dtype=np.int64)]
        d = 0
        while levels[-1].size:
            src, nbrs = _frontier_neighbors(indptr, indices, levels[-1])
            fresh = nbrs[dist[nbrs] < 0]
            d += 1
            if fresh.size:
                dist[fresh] = d
            # All frontier->next-level adjacency entries contribute to
            # sigma, including parallel discoveries within the level.
            on_next = dist[nbrs] == d
            if on_next.any():
                np.add.at(sigma, nbrs[on_next], sigma[src[on_next]])
            levels.append(np.unique(fresh))
        delta = np.zeros(n)
        for depth in range(len(levels) - 1, 0, -1):
            frontier = levels[depth]
            if frontier.size == 0:
                continue
            src, nbrs = _frontier_neighbors(indptr, indices, frontier)
            up = dist[nbrs] == depth - 1
            if up.any():
                coeff = (1.0 + delta[src[up]]) / sigma[src[up]]
                np.add.at(delta, nbrs[up], sigma[nbrs[up]] * coeff)
        bc += delta
        bc[s] -= delta[s]
    return bc


# ----------------------------------------------------------------------
# Peeling kernels
# ----------------------------------------------------------------------
def core_numbers_vector(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """K-core numbers by level-synchronous bucket peeling.

    Instead of removing one minimum-degree vertex at a time, every
    vertex at or below the current level peels in one batch; the batch's
    surviving neighbours take their degree decrements from one
    ``np.add.at`` scatter and are the only candidates for the next
    batch — cascade rounds touch O(frontier edges), not O(n), so long
    peel chains stay linear overall.  Core numbers are
    peel-order-independent, so the output matches the
    one-vertex-at-a-time Batagelj–Zaversnik peel exactly.
    """
    n = len(indptr) - 1
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    deg = np.diff(indptr).astype(np.int64)
    core = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    remaining = n
    k = 0
    while remaining:
        k = max(k, int(deg[alive].min()))
        peel = np.flatnonzero(alive & (deg <= k))
        while peel.size:
            core[peel] = k
            alive[peel] = False
            remaining -= len(peel)
            __, nbrs = _frontier_neighbors(indptr, indices, peel)
            nbrs = nbrs[alive[nbrs]]
            if nbrs.size == 0:
                break
            np.add.at(deg, nbrs, -1)
            # Only vertices that just lost degree can newly fall to <= k.
            candidates = np.unique(nbrs)
            peel = candidates[deg[candidates] <= k]
    return core
