"""Triangle counting and clustering coefficients.

Edge triangle *support* feeds the K-truss decomposition; vertex triangle
counts and clustering coefficients are used as derived scalar measures
and as role-extraction features.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..engine.registry import edge_measure, vertex_measure

__all__ = [
    "edge_supports",
    "vertex_triangles",
    "total_triangles",
    "clustering_coefficients",
    "average_clustering",
]

# Out-neighbour pairs per numpy pass: a few MB of temporaries at any
# graph size (2**20 raised the `build` benchmark's peak RSS by a fifth).
_PAIR_CHUNK = 1 << 15


def edge_supports(graph: CSRGraph) -> np.ndarray:
    """Number of triangles through each edge (dense edge-id order).

    ``support(u, v) = |N(u) ∩ N(v)|``.  Edges point from the lower to
    the higher (degree, id) rank, so each triangle is one pair of
    out-neighbours of its lowest corner, and no out-list exceeds
    ``sqrt(2m)``.  Pairs go ``_PAIR_CHUNK`` at a time; a ``searchsorted``
    into the sorted edge keys finds each pair's closing edge, and
    ``np.add.at`` counts the three edges of every triangle.
    """
    pairs = graph.edge_array()
    m = len(pairs)
    supports = np.zeros(m, dtype=np.int64)
    n = graph.n_vertices
    keys = pairs[:, 0] * n + pairs[:, 1]  # sorted, as CSR rows are
    deg = graph.degree()
    # pairs[:, 0] < pairs[:, 1], so the id tie-break never flips an edge.
    flip = deg[pairs[:, 0]] > deg[pairs[:, 1]]
    src = np.where(flip, pairs[:, 1], pairs[:, 0])
    out_eid = np.argsort(src, kind="stable")
    out_dst = np.where(flip, pairs[:, 0], pairs[:, 1])[out_eid]
    # Out-slot j pairs with the later slots of its own out-list.
    ends = np.cumsum(np.bincount(src, minlength=n))
    later = ends[src[out_eid]] - 1 - np.arange(m)
    csum = np.cumsum(later)
    lo = 0
    while lo < m:
        # At least one slot, whose pairs number below sqrt(2m).
        cap = csum[lo] - later[lo] + _PAIR_CHUNK
        hi = max(lo + 1, int(np.searchsorted(csum, cap, side="right")))
        counts = later[lo:hi]
        first = np.repeat(np.arange(lo, hi), counts)
        start = np.repeat(np.cumsum(counts) - counts, counts)
        second = first + 1 + np.arange(len(first)) - start
        a, b = out_dst[first], out_dst[second]
        want = np.minimum(a, b) * n + np.maximum(a, b)
        # Searched in key order, the lookups stay cache-friendly (~6x).
        by_key = np.argsort(want)
        first, second, want = first[by_key], second[by_key], want[by_key]
        at = np.minimum(np.searchsorted(keys, want), m - 1)
        closed = keys[at] == want
        np.add.at(supports, out_eid[first[closed]], 1)
        np.add.at(supports, out_eid[second[closed]], 1)
        np.add.at(supports, at[closed], 1)
        lo = hi
    return supports


def vertex_triangles(graph: CSRGraph) -> np.ndarray:
    """Number of triangles incident to each vertex."""
    pairs = graph.edge_array()
    supports = edge_supports(graph)
    counts = np.zeros(graph.n_vertices, dtype=np.int64)
    np.add.at(counts, pairs[:, 0], supports)
    np.add.at(counts, pairs[:, 1], supports)
    # Each triangle at vertex w is counted once per incident edge pair;
    # an edge (u, v) with support s contributes s to u and to v, so each
    # triangle is counted twice at each of its three corners.
    return counts // 2


def total_triangles(graph: CSRGraph) -> int:
    """Total number of triangles in the graph."""
    return int(edge_supports(graph).sum()) // 3


def clustering_coefficients(graph: CSRGraph) -> np.ndarray:
    """Local clustering coefficient per vertex (0 where degree < 2)."""
    tri = vertex_triangles(graph).astype(np.float64)
    deg = graph.degree().astype(np.float64)
    possible = deg * (deg - 1) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        cc = np.where(possible > 0, tri / np.where(possible > 0, possible, 1), 0.0)
    return cc


def average_clustering(graph: CSRGraph) -> float:
    """Mean local clustering coefficient."""
    if graph.n_vertices == 0:
        return 0.0
    return float(clustering_coefficients(graph).mean())


# ----------------------------------------------------------------------
# Registry adapters (repro.engine).
# ----------------------------------------------------------------------
@vertex_measure(
    "clustering", cost="moderate", replace=True,
    description="local clustering coefficient per vertex",
)
def _clustering_field(graph: CSRGraph) -> np.ndarray:
    return clustering_coefficients(graph)


@edge_measure(
    "support", cost="moderate", replace=True,
    description="triangle support sup(e) per edge",
)
def _support_field(graph: CSRGraph) -> np.ndarray:
    return edge_supports(graph).astype(np.float64)
