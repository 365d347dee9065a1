"""Shared strategies for the backend-equivalence property suite.

Scenarios deliberately cover the cases the kernels could get wrong:
disconnected graphs (forest outputs, unreachable BFS targets), isolated
vertices, heavy scalar ties (super-node grouping, rank tie-breaks), and
empty/edgeless degenerates.
"""

import numpy as np
from hypothesis import strategies as st

from repro.graph import generators
from repro.graph.builders import from_edge_array

_GENERATORS = [
    lambda n, seed: generators.erdos_renyi(
        n, min(2 * n, n * (n - 1) // 2), seed=seed
    ),
    # Sparse: disconnected components and isolated vertices are common.
    lambda n, seed: generators.erdos_renyi(n, max(n // 2, 1), seed=seed),
    lambda n, seed: generators.watts_strogatz(n, 3, 0.25, seed=seed),
    lambda n, seed: generators.powerlaw_cluster(
        n, 2, 0.5, seed=seed
    ) if n > 2 else generators.erdos_renyi(n, 1, seed=seed),
    lambda n, seed: generators.connected_caveman(max(n // 5, 2), 5),
]


@st.composite
def graphs(draw, min_vertices=4, max_vertices=60):
    """A random graph, sometimes padded with trailing isolated vertices."""
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    graph = draw(st.sampled_from(_GENERATORS))(n, seed)
    if draw(st.booleans()):
        graph = from_edge_array(
            graph.edge_array(),
            n_vertices=graph.n_vertices
            + draw(st.integers(min_value=1, max_value=4)),
        )
    return graph


@st.composite
def scalar_fields(draw, graph_strategy=None):
    """``(graph, scalars)`` with heavy ties (few distinct levels)."""
    graph = draw(graph_strategy if graph_strategy is not None else graphs())
    levels = draw(st.integers(min_value=1, max_value=5))
    values = draw(
        st.lists(
            st.integers(min_value=0, max_value=levels),
            min_size=graph.n_vertices, max_size=graph.n_vertices,
        )
    )
    return graph, np.array(values, dtype=np.float64)


@st.composite
def forests(draw, max_nodes=60):
    """``(parent, scalars)`` of a valid forest, no child below its
    parent: many roots (any negative parent), heavy ties and deep
    equal-valued chains, with ids shuffled so that a parent's id may
    exceed its child's."""
    n = draw(st.integers(min_value=0, max_value=max_nodes))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    root_p = draw(st.sampled_from([0.02, 0.2, 0.6]))
    tie_p = draw(st.sampled_from([0.3, 0.7, 0.95]))
    parent = np.full(n, -1, dtype=np.int64)
    scalars = np.zeros(n)
    for i in range(n):
        if i and rng.random() >= root_p:
            # Half the time extend the newest node, for deep chains.
            p = i - 1 if rng.random() < 0.5 else int(rng.integers(0, i))
            parent[i] = p
            tie = rng.random() < tie_p
            scalars[i] = scalars[p] + (0 if tie else int(rng.integers(1, 3)))
        else:
            parent[i] = -int(rng.integers(1, 4))
            scalars[i] = int(rng.integers(0, 4))
    perm = rng.permutation(n)  # item i is renamed perm[i]
    shuffled = np.empty(n, dtype=np.int64)
    shuffled[perm] = np.where(parent >= 0, perm[np.maximum(parent, 0)], parent)
    values = np.empty(n)
    values[perm] = scalars
    return shuffled, values
