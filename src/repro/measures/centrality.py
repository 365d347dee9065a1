"""Centrality measures on CSR graphs.

Degree, closeness, harmonic, PageRank and Brandes betweenness (exact and
sampled-pivot).  Degree and betweenness are the two fields compared in
the paper's §III-C / Fig 10 / user-study Task 3.

The traversal-based measures (closeness, harmonic, betweenness) run
the frontier-at-a-time kernels of :mod:`repro.accel.traverse` over the
given sources in the calling thread.  Against one ``deque`` BFS per
source (the oracle in ``tests/accel/oracles.py``) the distances, hence
closeness and harmonic values, are identical; betweenness sums its
dependencies in another order and agrees to 1e-9.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..accel import traverse as _traverse
from ..graph.csr import CSRGraph
from ..engine.registry import vertex_measure

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


def closeness_centrality(
    graph: CSRGraph, sources: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Closeness with the Wasserman–Faust component correction
    (matches networkx): ``((r-1)/(n-1)) * (r-1)/Σd`` where ``r`` is the
    size of v's reachable set.  ``sources`` restricts the computation to
    those vertices (zeros elsewhere).
    """
    return _traverse.closeness_values(graph.indptr, graph.indices, sources)


def harmonic_centrality(
    graph: CSRGraph, sources: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Harmonic centrality: ``Σ_{u != v} 1 / d(u, v)`` (0 for unreachable).

    ``sources`` restricts the computation to those vertices (zeros
    elsewhere).
    """
    return _traverse.harmonic_values(graph.indptr, graph.indices, sources)


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

    The level-synchronous accumulation of
    :func:`repro.accel.traverse.betweenness_accumulate` sums
    dependencies in another order than a per-source Brandes pass, so
    the two agree to ~1e-9, not bit for bit.
    """
    n = graph.n_vertices
    if n < 3:
        return np.zeros(n)
    if samples is not None and samples < n:
        rng = np.random.default_rng(seed)
        sources = rng.choice(n, size=samples, replace=False)
        scale_samples = n / samples
    else:
        sources = np.arange(n)
        scale_samples = 1.0
    bc = _traverse.betweenness_accumulate(graph.indptr, graph.indices, sources)
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
    "closeness", cost="expensive", replace=True,
    description="closeness centrality (all-pairs BFS)",
)
def _closeness_field(graph: CSRGraph) -> np.ndarray:
    return closeness_centrality(graph)


@vertex_measure(
    "harmonic", cost="expensive", replace=True,
    description="harmonic centrality (all-pairs BFS)",
)
def _harmonic_field(graph: CSRGraph) -> np.ndarray:
    return harmonic_centrality(graph)


@vertex_measure(
    "eigenvector", cost="moderate", replace=True,
    description="eigenvector centrality (power iteration)",
)
def _eigenvector_field(graph: CSRGraph) -> np.ndarray:
    return eigenvector_centrality(graph)


@vertex_measure(
    "betweenness", cost="expensive", replace=True,
    description="betweenness centrality (sampled pivots, seed 0)",
)
def _betweenness_field(graph: CSRGraph) -> np.ndarray:
    return betweenness_centrality(
        graph, samples=min(256, graph.n_vertices), seed=0
    )
