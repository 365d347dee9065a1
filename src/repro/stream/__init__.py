"""Dynamic scalar fields: incremental tree maintenance over edit streams.

The paper's Algorithms 1–3 build scalar trees in one shot over a static
snapshot.  This subpackage opens the *streaming* workload class: the
graph and its scalar field keep changing (edge churn, measure updates)
and the scalar tree — and therefore the terrain — is maintained with
work proportional to the touched α-components instead of a full
O(m·α(n)) rebuild per change.

Modules
-------
``repro.stream.delta``
    :class:`DeltaGraph` — mutable overlay (edge adds/removes + scalar
    updates) on the immutable CSR substrate, with ``compact()`` back to
    a snapshot.
``repro.stream.editlog``
    Typed edit events (:class:`SetScalar`, :class:`AddEdge`,
    :class:`RemoveEdge`), batched transactions, and the JSONL edit-log
    reader/writer used by ``repro stream`` and the benchmarks.
``repro.stream.incremental``
    :class:`StreamingScalarTree` — checkpointed, rollback-capable
    Algorithm 1 that rewinds to the batch's impact level and replays
    only the dirty suffix.
``repro.stream.window``
    :class:`SlidingWindow` — expire edits older than a horizon
    (``repro stream --window``).
"""

from .delta import DeltaGraph
from .editlog import (
    AddEdge,
    Batch,
    Edit,
    EditLogError,
    RemoveEdge,
    SetScalar,
    iter_edit_log,
    read_edit_log,
    write_edit_log,
)
from .incremental import StreamingScalarTree
from .window import SlidingWindow

__all__ = [
    "DeltaGraph",
    "SetScalar",
    "AddEdge",
    "RemoveEdge",
    "Edit",
    "Batch",
    "EditLogError",
    "write_edit_log",
    "read_edit_log",
    "iter_edit_log",
    "StreamingScalarTree",
    "SlidingWindow",
]
