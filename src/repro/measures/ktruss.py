"""K-truss decomposition (truss peeling).

``KT(e)`` — the largest K such that edge ``e`` belongs to a K-truss, a
subgraph where every edge participates in at least K triangles
(Definition 5; this is the *triangle-count* convention the paper uses,
not the k = support+2 convention of some libraries).  By Proposition 5,
maximal α-edge connected components of the KT field are K-trusses.

The native tier runs the C bin-sort peel of :mod:`repro.accel.native`;
``vector`` and hosts without a C compiler run the bucket-queue peel
below.  Truss numbers are peel-order-independent, so both agree.
"""

from __future__ import annotations

import numpy as np

from .. import accel
from ..accel import native as _native
from ..graph.csr import CSRGraph
from ..engine.registry import edge_measure
from .triangles import edge_supports

__all__ = ["truss_numbers", "k_truss_edges", "max_truss"]


def truss_numbers(graph: CSRGraph) -> np.ndarray:
    """``KT(e)`` per dense edge id, via support peeling.

    Repeatedly removes an edge of minimum remaining support; its truss
    number is its support at removal (made monotone over the peel).
    Removing (u, v) decrements the support of (u, w) and (v, w) for every
    surviving common neighbour w.
    """
    support = edge_supports(graph)
    if accel.resolve(native=True) == "native":
        return _native.truss_peel(graph.indptr, graph.indices, support)
    pairs = graph.edge_array()
    m = len(pairs)
    support = support.tolist()
    # adjacency as vertex -> {neighbor: edge_id} for surviving edges.
    adj = [dict() for _ in range(graph.n_vertices)]
    for eid, (u, v) in enumerate(pairs):
        adj[int(u)][int(v)] = eid
        adj[int(v)][int(u)] = eid

    # Bucket queue over supports.
    max_sup = max(support) if m else 0
    buckets = [[] for _ in range(max_sup + 1)]
    for eid, s in enumerate(support):
        buckets[s].append(eid)
    in_bucket = support[:]  # support level at which eid was last queued
    alive = [True] * m
    truss = [0] * m
    peeled = 0
    current = 0
    level = 0  # monotone truss level
    while peeled < m:
        while current <= max_sup and not buckets[current]:
            current += 1
        eid = buckets[current].pop()
        if not alive[eid] or in_bucket[eid] != current:
            continue
        u, v = int(pairs[eid][0]), int(pairs[eid][1])
        level = max(level, support[eid])
        truss[eid] = level
        alive[eid] = False
        peeled += 1
        del adj[u][v]
        del adj[v][u]
        small, big = (adj[u], adj[v]) if len(adj[u]) < len(adj[v]) else (adj[v], adj[u])
        for w, ew in small.items():
            eo = big.get(w)
            if eo is None:
                continue
            for edge in (ew, eo):
                if support[edge] > level:
                    support[edge] -= 1
                    in_bucket[edge] = support[edge]
                    buckets[support[edge]].append(edge)
                    if support[edge] < current:
                        current = support[edge]
    return np.array(truss, dtype=np.int64)


def k_truss_edges(graph: CSRGraph, k: int) -> np.ndarray:
    """Dense edge ids of the (maximal) K-truss: edges with ``KT(e) >= k``."""
    return np.flatnonzero(truss_numbers(graph) >= k)


def max_truss(graph: CSRGraph) -> int:
    """The largest K with a non-empty K-truss."""
    if graph.n_edges == 0:
        return 0
    return int(truss_numbers(graph).max())


# ----------------------------------------------------------------------
# Registry adapter (repro.engine): KT(e) as a float edge scalar field.
# ----------------------------------------------------------------------
@edge_measure(
    "ktruss", cost="expensive", replace=True,
    description="K-truss number KT(e) (support peeling, Algorithm 3 input)",
)
def _ktruss_field(graph: CSRGraph) -> np.ndarray:
    return truss_numbers(graph).astype(np.float64)
