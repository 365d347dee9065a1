"""Centrality measures on CSR graphs.

Degree, closeness, harmonic, PageRank and Brandes betweenness (exact and
sampled-pivot).  Degree and betweenness are the two fields compared in
the paper's §III-C / Fig 10 / user-study Task 3.

The traversal-based measures (closeness, harmonic, betweenness) carry a
``backend`` switch: the naive path is the per-source Python BFS below,
the vector path the frontier-at-a-time kernels of
:mod:`repro.accel.traverse` (identical distances, hence identical
closeness/harmonic values; betweenness agrees to 1e-9).  Both paths
walk the same source list in the calling thread.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

import numpy as np

from .. import accel
from ..accel import traverse as _traverse
from ..graph.csr import CSRGraph
from ..engine.registry import vertex_measure

# ``--accel auto``: per-source Python BFS wins only on very small graphs.
_VECTOR_MIN_VERTICES = 256

__all__ = [
    "degree_centrality",
    "closeness_centrality",
    "harmonic_centrality",
    "pagerank",
    "betweenness_centrality",
    "eigenvector_centrality",
]


def degree_centrality(graph: CSRGraph, normalized: bool = True) -> np.ndarray:
    """Degree of each vertex, optionally divided by ``n - 1``."""
    deg = graph.degree().astype(np.float64)
    if normalized and graph.n_vertices > 1:
        deg = deg / (graph.n_vertices - 1)
    return deg


def _bfs_distances(graph: CSRGraph, source: int) -> np.ndarray:
    dist = np.full(graph.n_vertices, -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in graph.neighbors(u):
            if dist[v] < 0:
                dist[v] = du + 1
                queue.append(int(v))
    return dist


def closeness_centrality(
    graph: CSRGraph,
    backend: Optional[str] = None,
    sources: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Closeness with the Wasserman–Faust component correction
    (matches networkx): ``((r-1)/(n-1)) * (r-1)/Σd`` where ``r`` is the
    size of v's reachable set.  ``sources`` restricts the computation to
    those vertices (zeros elsewhere).
    """
    n = graph.n_vertices
    chosen = accel.resolve(backend, size=n, threshold=_VECTOR_MIN_VERTICES)
    if chosen == "vector":
        return _traverse.closeness_values(
            graph.indptr, graph.indices, sources
        )
    out = np.zeros(n)
    for v in range(n) if sources is None else sources:
        dist = _bfs_distances(graph, int(v))
        reach = dist >= 0
        r = int(reach.sum())
        total = int(dist[reach].sum())
        if total > 0 and n > 1:
            out[v] = ((r - 1) / (n - 1)) * ((r - 1) / total)
    return out


def harmonic_centrality(
    graph: CSRGraph,
    backend: Optional[str] = None,
    sources: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Harmonic centrality: ``Σ_{u != v} 1 / d(u, v)`` (0 for unreachable).

    ``sources`` restricts the computation to those vertices (zeros
    elsewhere).
    """
    n = graph.n_vertices
    chosen = accel.resolve(backend, size=n, threshold=_VECTOR_MIN_VERTICES)
    if chosen == "vector":
        return _traverse.harmonic_values(
            graph.indptr, graph.indices, sources
        )
    out = np.zeros(n)
    for v in range(n) if sources is None else sources:
        dist = _bfs_distances(graph, int(v))
        pos = dist > 0
        out[v] = float((1.0 / dist[pos]).sum())
    return out


def pagerank(
    graph: CSRGraph,
    damping: float = 0.85,
    tol: float = 1e-10,
    max_iter: int = 200,
) -> np.ndarray:
    """PageRank by power iteration on the undirected adjacency.

    Dangling (isolated) vertices redistribute uniformly.  Returns a
    probability vector (sums to 1).
    """
    n = graph.n_vertices
    if n == 0:
        return np.zeros(0)
    deg = graph.degree().astype(np.float64)
    rank = np.full(n, 1.0 / n)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    for __ in range(max_iter):
        contrib = np.where(deg > 0, rank / np.where(deg > 0, deg, 1), 0.0)
        nxt = np.zeros(n)
        np.add.at(nxt, graph.indices, contrib[src])
        dangling = rank[deg == 0].sum()
        nxt = (1 - damping) / n + damping * (nxt + dangling / n)
        if np.abs(nxt - rank).sum() < tol:
            rank = nxt
            break
        rank = nxt
    return rank


def eigenvector_centrality(
    graph: CSRGraph,
    tol: float = 1e-10,
    max_iter: int = 1000,
) -> np.ndarray:
    """Eigenvector centrality by power iteration on the adjacency.

    Iterates the shifted operator ``A + I`` (same eigenvectors, and the
    shift guarantees convergence on bipartite graphs where plain power
    iteration oscillates).  Normalised to unit Euclidean norm
    (networkx's convention).  Raises ``RuntimeError`` if the iteration
    fails to converge.
    """
    n = graph.n_vertices
    if n == 0:
        return np.zeros(0)
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.indptr))
    x = np.full(n, 1.0 / np.sqrt(n))
    for __ in range(max_iter):
        nxt = x.copy()
        np.add.at(nxt, graph.indices, x[src])
        norm = np.linalg.norm(nxt)
        if norm == 0:
            return x  # edgeless graph: uniform vector is fine
        nxt /= norm
        if np.abs(nxt - x).max() < tol:
            return nxt
        x = nxt
    raise RuntimeError("eigenvector centrality did not converge")


def betweenness_centrality(
    graph: CSRGraph,
    normalized: bool = True,
    samples: Optional[int] = None,
    seed: int = 0,
    backend: Optional[str] = None,
) -> np.ndarray:
    """Brandes betweenness centrality (unweighted).

    Parameters
    ----------
    normalized:
        Divide by ``(n-1)(n-2)/2`` (the undirected pair count).
    samples:
        If given, accumulate from this many random source pivots and
        scale by ``n / samples`` — the standard unbiased estimator,
        needed to keep the larger stand-in graphs tractable.
    seed:
        Pivot-sampling seed.
    backend:
        Accumulation kernel (see :mod:`repro.accel`); both backends use
        the same pivots, and agree to ~1e-9 (the level-synchronous
        vector pass sums dependencies in a different order).
    """
    n = graph.n_vertices
    bc = np.zeros(n)
    if n < 3:
        return bc
    if samples is not None and samples < n:
        rng = np.random.default_rng(seed)
        sources = rng.choice(n, size=samples, replace=False)
        scale_samples = n / samples
    else:
        sources = np.arange(n)
        scale_samples = 1.0

    chosen = accel.resolve(backend, size=n, threshold=_VECTOR_MIN_VERTICES)
    if chosen == "vector":
        bc = _traverse.betweenness_accumulate(
            graph.indptr, graph.indices, sources
        )
        bc *= scale_samples / 2.0  # each undirected pair counted twice
        if normalized:
            bc /= (n - 1) * (n - 2) / 2.0
        return bc

    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    for s in sources.tolist():
        # BFS computing shortest-path counts (sigma) and predecessors.
        dist = [-1] * n
        sigma = [0.0] * n
        preds = [[] for __ in range(n)]
        dist[s] = 0
        sigma[s] = 1.0
        order = [s]
        queue = deque([s])
        while queue:
            u = queue.popleft()
            du = dist[u]
            for p in range(indptr[u], indptr[u + 1]):
                v = indices[p]
                if dist[v] < 0:
                    dist[v] = du + 1
                    queue.append(v)
                    order.append(v)
                if dist[v] == du + 1:
                    sigma[v] += sigma[u]
                    preds[v].append(u)
        # Dependency accumulation in reverse BFS order.
        delta = [0.0] * n
        for v in reversed(order):
            coeff = (1.0 + delta[v]) / sigma[v]
            for u in preds[v]:
                delta[u] += sigma[u] * coeff
            if v != s:
                bc[v] += delta[v]
    bc *= scale_samples / 2.0  # each undirected pair counted twice
    if normalized:
        bc /= (n - 1) * (n - 2) / 2.0
    return bc


# ----------------------------------------------------------------------
# Registry adapters (repro.engine).  Parameter choices match what the
# CLI always used: raw degrees, and sampled-pivot betweenness with a
# fixed seed so repeated builds are cache-identical.
# ----------------------------------------------------------------------
@vertex_measure(
    "degree", cost="cheap", replace=True,
    description="degree (unnormalized)",
)
def _degree_field(graph: CSRGraph) -> np.ndarray:
    return degree_centrality(graph, normalized=False)


@vertex_measure(
    "pagerank", cost="moderate", replace=True,
    description="PageRank (d=0.85)",
)
def _pagerank_field(graph: CSRGraph) -> np.ndarray:
    return pagerank(graph)


@vertex_measure(
    "closeness", cost="expensive", replace=True, backend="accel",
    description="closeness centrality (all-pairs BFS)",
)
def _closeness_field(graph: CSRGraph, backend=None) -> np.ndarray:
    return closeness_centrality(graph, backend=backend)


@vertex_measure(
    "harmonic", cost="expensive", replace=True, backend="accel",
    description="harmonic centrality (all-pairs BFS)",
)
def _harmonic_field(graph: CSRGraph, backend=None) -> np.ndarray:
    return harmonic_centrality(graph, backend=backend)


@vertex_measure(
    "eigenvector", cost="moderate", replace=True,
    description="eigenvector centrality (power iteration)",
)
def _eigenvector_field(graph: CSRGraph) -> np.ndarray:
    return eigenvector_centrality(graph)


@vertex_measure(
    "betweenness", cost="expensive", replace=True, backend="accel",
    description="betweenness centrality (sampled pivots, seed 0)",
)
def _betweenness_field(graph: CSRGraph, backend=None) -> np.ndarray:
    return betweenness_centrality(
        graph, samples=min(256, graph.n_vertices), seed=0, backend=backend
    )
