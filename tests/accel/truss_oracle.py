"""The fixed k-truss oracle: per-edge support loop plus dict-adjacency peel.

Both functions are the original pure-Python implementations, kept here
verbatim, so the array supports and both production peels are checked
against code that no refactor of ``src/`` touches.
"""

import numpy as np


def loop_edge_supports(graph) -> np.ndarray:
    """Number of triangles through each edge (dense edge-id order).

    ``support(u, v) = |N(u) ∩ N(v)|``, computed by merging the two
    sorted neighbour lists.
    """
    pairs = graph.edge_array()
    supports = np.zeros(len(pairs), dtype=np.int64)
    for eid, (u, v) in enumerate(pairs):
        a = graph.neighbors(int(u))
        b = graph.neighbors(int(v))
        if len(a) > len(b):
            a, b = b, a
        # Sorted-merge intersection count.
        supports[eid] = len(np.intersect1d(a, b, assume_unique=True))
    return supports


def oracle_truss_numbers(graph) -> np.ndarray:
    """``KT(e)`` per dense edge id: loop supports, then the bucket-queue
    peel over dict adjacency."""
    pairs = graph.edge_array()
    m = len(pairs)
    support = loop_edge_supports(graph).tolist()
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
