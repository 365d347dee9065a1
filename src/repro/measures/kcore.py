"""K-core decomposition (Batagelj–Zaversnik O(m) peeling).

``KC(v)`` — the paper's notation for the largest K such that v belongs
to a K-core (Definition 4).  Used as the vertex scalar field for the
dense-subgraph terrains (Figs 1(a), 6, 7) and, by Proposition 4, every
maximal α-connected component of the KC field is a K-core with K = α.
"""

from __future__ import annotations

import numpy as np

from ..accel import traverse as _traverse
from ..graph.csr import CSRGraph
from ..engine.registry import vertex_measure

__all__ = ["core_numbers", "k_core_subgraph", "degeneracy"]


def core_numbers(graph: CSRGraph) -> np.ndarray:
    """``KC(v)`` for every vertex, via bucket peeling in O(m).

    Repeatedly removes a minimum-degree vertex; a vertex's core number
    is its degree at removal time (made monotone over the peel).  The
    peel removes whole degree levels at a time
    (:func:`repro.accel.traverse.core_numbers_vector`); core numbers
    are peel-order-independent, so this equals the one-vertex-at-a-time
    peel exactly.
    """
    if graph.n_vertices == 0:
        return np.zeros(0, dtype=np.int64)
    return _traverse.core_numbers_vector(graph.indptr, graph.indices)


def k_core_subgraph(graph: CSRGraph, k: int) -> np.ndarray:
    """Vertices of the (maximal) K-core: all v with ``KC(v) >= k``."""
    return np.flatnonzero(core_numbers(graph) >= k)


def degeneracy(graph: CSRGraph) -> int:
    """The graph's degeneracy — the largest K with a non-empty K-core."""
    if graph.n_vertices == 0:
        return 0
    return int(core_numbers(graph).max())


# ----------------------------------------------------------------------
# Registry adapter (repro.engine): KC(v) as a float scalar field.
# ----------------------------------------------------------------------
@vertex_measure(
    "kcore", cost="moderate", replace=True,
    description="K-core number KC(v) (peeling, Table II's field)",
)
def _kcore_field(graph: CSRGraph) -> np.ndarray:
    return core_numbers(graph).astype(np.float64)
