"""repro.dist — out-of-core scalar-tree construction from on-disk shards.

The one build a single in-memory pass cannot do: an edge list on disk is
streamed into self-describing :class:`~repro.dist.partition.Shard`\\ s
under a bounded buffer budget, each shard's edges are reduced to a merge
forest, and the forests are merged into a global tree that is
**node-for-node identical** to the single-process build
(``repro dist-build --scatter-dir``).

``repro.dist.partition``
    Deterministic edge partitioners (``hash``/``range``/``degree``),
    boundary-vertex bookkeeping, and the shard manifest format.
``repro.dist.oocore``
    Streaming scatter of an on-disk edge list into per-shard fragments
    with bounded peak memory, and their sha256-verified reload.
``repro.dist.executor``
    :func:`build_tree` — per-shard merge-forest reduction, one shard
    after another in the calling thread, then the exact merge via the
    filter-and-replay argument and final assembly through the tree's
    splice hook; :func:`merged_field` for shard-mergeable measures.

Only the scatter pass is memory-bounded: :func:`load_shards` returns
every shard's edges at once.
"""

from .executor import build_tree, merged_field, reduce_shard
from .oocore import (
    ScatterResult,
    ShardIntegrityError,
    load_shards,
    resilient_scatter,
    scatter_edge_list,
)
from .partition import (
    PARTITIONERS,
    Shard,
    boundary_sets,
    cut_vertices,
    partition_edges,
)

__all__ = [
    "PARTITIONERS",
    "Shard",
    "boundary_sets",
    "cut_vertices",
    "partition_edges",
    "ScatterResult",
    "ShardIntegrityError",
    "scatter_edge_list",
    "resilient_scatter",
    "load_shards",
    "build_tree",
    "merged_field",
    "reduce_shard",
]
