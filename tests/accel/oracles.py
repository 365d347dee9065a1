"""Loop oracles: the per-item Python implementations the accel kernels
replaced, kept verbatim so the runtime paths are checked against code
that no refactor of ``src/`` touches.

Each was once the ``naive`` branch of its runtime function; the bodies
below are those branches unchanged, with only the setup the branch
shared with the other tiers copied in front of it:

* :func:`oracle_vertex_tree` — Algorithm 1 replaying each vertex's
  adjacency through :func:`~repro.core.scalar_tree.attach_vertex`;
* :func:`oracle_edge_tree` — Algorithm 3 with a per-edge
  ``min_id_edge`` scan and its own union-find walk;
* :func:`oracle_core_numbers` — Batagelj–Zaversnik bucket peeling,
  one vertex at a time;
* :func:`oracle_bfs_distances`, :func:`oracle_closeness`,
  :func:`oracle_harmonic` — one ``deque`` BFS per source;
* :func:`oracle_betweenness` — Brandes with per-source predecessor
  lists (the vector kernel sums in another order: compare to 1e-9);
* :func:`oracle_rasterize` — level-major disc painting with one Python
  iteration per node, sub-pixel stamps included.

The k-truss oracle lives in ``truss_oracle.py``.
"""

from collections import deque

import numpy as np

from repro.accel import tree as _accel_tree
from repro.accel.raster import forest_depths
from repro.core.scalar_tree import ScalarTree, attach_vertex
from repro.core.union_find import UnionFind
from repro.terrain.heightfield import Heightfield, _paint_disc


def oracle_vertex_tree(scalar_graph) -> ScalarTree:
    """Algorithm 1 by adjacency replay through ``attach_vertex``."""
    graph = scalar_graph.graph
    n = graph.n_vertices
    scalars = scalar_graph.scalars
    # Decreasing scalar, ties by ascending vertex id.
    order, rank = _accel_tree.rank_order(scalars)

    parent = [-1] * n
    uf = UnionFind(n)
    tree_root = list(range(n))  # union-find root -> current subtree root node
    # List conversions are the loop's price of admission (numpy
    # element access is several times slower than list access from
    # Python).
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    rank_list = rank.tolist()

    for v in order.tolist():
        attach_vertex(
            v, indices[indptr[v]: indptr[v + 1]],
            rank_list, uf, parent, tree_root,
        )

    return ScalarTree(
        np.array(parent, dtype=np.int64), scalars.copy(), kind="vertex"
    )


def oracle_edge_tree(edge_graph) -> ScalarTree:
    """Algorithm 3 with a per-edge ``min_id_edge`` scan."""
    m = edge_graph.n_edges
    scalars = edge_graph.scalars
    pairs = edge_graph.edge_pairs
    # Decreasing scalar, ties by ascending edge id.
    order, rank = _accel_tree.rank_order(scalars)

    # min_id_edge per vertex: incident edge with minimum rank.
    n = edge_graph.n_vertices
    INF = m + 1
    min_id_edge = np.full(n, -1, dtype=np.int64)
    best_rank = np.full(n, INF, dtype=np.int64)
    for eid in range(m):
        u, v = pairs[eid]
        r = rank[eid]
        if r < best_rank[u]:
            best_rank[u] = r
            min_id_edge[u] = eid
        if r < best_rank[v]:
            best_rank[v] = r
            min_id_edge[v] = eid

    parent = [-1] * m
    uf = UnionFind(m)
    tree_root = list(range(m))
    rank_list = rank.tolist()
    min_edge_list = min_id_edge.tolist()
    pairs_list = pairs.tolist()

    for eid in order.tolist():
        rank_e = rank_list[eid]
        u, v = pairs_list[eid]
        for em in (min_edge_list[u], min_edge_list[v]):
            if em >= 0 and rank_list[em] < rank_e:
                root_e, root_m = uf.find(eid), uf.find(em)
                if root_e != root_m:
                    parent[tree_root[root_m]] = eid
                    merged = uf.union(root_e, root_m)
                    tree_root[merged] = eid

    return ScalarTree(
        np.array(parent, dtype=np.int64), scalars.copy(), kind="edge"
    )


def oracle_core_numbers(graph) -> np.ndarray:
    """``KC(v)`` by one-vertex-at-a-time bucket peeling."""
    n = graph.n_vertices
    degree = graph.degree().astype(np.int64)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    max_deg = int(degree.max())

    # Bucket sort vertices by degree.
    bin_start = np.zeros(max_deg + 2, dtype=np.int64)
    for d in degree:
        bin_start[d + 1] += 1
    bin_start = np.cumsum(bin_start)
    pos = np.empty(n, dtype=np.int64)
    vert = np.empty(n, dtype=np.int64)
    fill = bin_start[:-1].copy()
    for v in range(n):
        pos[v] = fill[degree[v]]
        vert[pos[v]] = v
        fill[degree[v]] += 1

    core = degree.copy()
    bin_ptr = bin_start[:-1].copy()  # start index of each degree bucket
    indptr = graph.indptr.tolist()
    indices = graph.indices.tolist()
    core_list = core.tolist()
    pos_list = pos.tolist()
    vert_list = vert.tolist()
    bin_list = bin_ptr.tolist()

    for i in range(n):
        v = vert_list[i]
        dv = core_list[v]
        for p in range(indptr[v], indptr[v + 1]):
            u = indices[p]
            du = core_list[u]
            if du > dv:
                # Move u to the front of its bucket, then shrink it.
                pu = pos_list[u]
                front = bin_list[du]
                w = vert_list[front]
                if u != w:
                    vert_list[front], vert_list[pu] = u, w
                    pos_list[u], pos_list[w] = front, pu
                bin_list[du] += 1
                core_list[u] = du - 1
    return np.array(core_list, dtype=np.int64)


def oracle_bfs_distances(graph, source: int) -> np.ndarray:
    """Hop distances from ``source`` (−1 where unreachable)."""
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


def oracle_closeness(graph, sources=None) -> np.ndarray:
    """Wasserman–Faust closeness, one BFS per source."""
    n = graph.n_vertices
    out = np.zeros(n)
    for v in range(n) if sources is None else sources:
        dist = oracle_bfs_distances(graph, int(v))
        reach = dist >= 0
        r = int(reach.sum())
        total = int(dist[reach].sum())
        if total > 0 and n > 1:
            out[v] = ((r - 1) / (n - 1)) * ((r - 1) / total)
    return out


def oracle_harmonic(graph, sources=None) -> np.ndarray:
    """Harmonic centrality, one BFS per source."""
    n = graph.n_vertices
    out = np.zeros(n)
    for v in range(n) if sources is None else sources:
        dist = oracle_bfs_distances(graph, int(v))
        pos = dist > 0
        out[v] = float((1.0 / dist[pos]).sum())
    return out


def oracle_betweenness(
    graph, normalized: bool = True, samples=None, seed: int = 0
) -> np.ndarray:
    """Brandes betweenness with per-source predecessor lists; the same
    pivots and scaling as ``betweenness_centrality``."""
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


def oracle_rasterize(layout, resolution: int = 160) -> Heightfield:
    """Level-major disc painting, one Python iteration per node."""
    if resolution < 4:
        raise ValueError("resolution must be >= 4")
    tree = layout.tree
    xmin, ymin, xmax, ymax = layout.extent
    span_x = xmax - xmin
    span_y = ymax - ymin
    res = resolution
    scalars = tree.scalars
    spread = float(scalars.max() - scalars.min())
    base = float(scalars.min()) - (0.05 * spread if spread > 0 else 1.0)
    height = np.full((res, res), base)
    node = np.full((res, res), -1, dtype=np.int64)

    # Cell-centre coordinate axes.
    xs = xmin + (np.arange(res) + 0.5) / res * span_x
    ys = ymin + (np.arange(res) + 0.5) / res * span_y

    # Canonical paint order: by depth, then node id.
    depth = forest_depths(tree.parent)
    order = np.lexsort((np.arange(tree.n_nodes), depth))
    level_starts = np.searchsorted(depth[order], np.arange(depth.max() + 2))

    for lo, hi in zip(level_starts[:-1], level_starts[1:]):
        deferred = []
        for nid in order[lo:hi].tolist():
            cx, cy, r = layout.cx[nid], layout.cy[nid], layout.r[nid]
            j_lo = int(np.searchsorted(xs, cx - r))
            j_hi = int(np.searchsorted(xs, cx + r))
            i_lo = int(np.searchsorted(ys, cy - r))
            i_hi = int(np.searchsorted(ys, cy + r))
            if j_lo >= j_hi or i_lo >= i_hi:
                # Sub-pixel disc: stamp its nearest cell (after the
                # level's full discs) so tiny leaves still register
                # (the paper draws them as points).
                deferred.append(nid)
                continue
            _paint_disc(
                height, node, xs, ys, cx, cy,
                j_lo, j_hi, i_lo, i_hi, r, scalars[nid], nid,
            )
        for nid in deferred:
            cx, cy = layout.cx[nid], layout.cy[nid]
            i, j = np.clip(
                [int((cy - ymin) / span_y * res), int((cx - xmin) / span_x * res)],
                0,
                res - 1,
            )
            if scalars[nid] >= height[i, j]:
                height[i, j] = scalars[nid]
                node[i, j] = nid
    return Heightfield(height, node, layout.extent, base)
