"""Edge-list and scalar-field file I/O.

The formats mirror the SNAP collection the paper draws its datasets from:
whitespace-separated integer pairs, ``#`` comments.  Scalar fields are
stored one ``vertex value`` (or ``u v value`` for edge fields) per line.

Edge lists stream as bounded chunks (:func:`iter_edge_chunks`): the
stripped data lines of a chunk are converted by one ``np.loadtxt`` call
and checked as arrays.  A chunk that numpy refuses or that fails a check
is re-read line by line, which either raises a typed, line-numbered
:class:`EdgeListError` for the first bad line or parses the chunk (a few
spellings ``int()``/``float()`` accept, such as ``1_0``, are outside
loadtxt's grammar).

*Temporal* edge lists — ``src dst ts [w]`` per line, the shape of the
Enron/Digg/Weibo interaction logs — stream through the same chunked
path: :func:`iter_temporal_edge_chunks` yields bounded ``(k, 4)``
blocks (errors are :class:`TemporalEdgeError`), and
:func:`iter_temporal_edges_sorted` adds an external merge sort by
timestamp (sorted runs spilled to one memory-mapped scratch file, then
merged a block at a time), so even an unsorted multi-GB log is consumed
in chunk-sized memory; the spill pass also reports the log's vertex
bound (largest endpoint + 1), so a consumer that needs the vertex
universe reads the file once.
"""

from __future__ import annotations

import functools
import math
import tempfile
import warnings
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from .builders import from_edge_array
from .csr import CSRGraph

__all__ = [
    "EdgeListError",
    "iter_edge_chunks",
    "read_edge_list",
    "write_edge_list",
    "read_vertex_scalars",
    "write_vertex_scalars",
    "read_edge_scalars",
    "write_edge_scalars",
    "TemporalEdgeError",
    "iter_temporal_edge_chunks",
    "iter_temporal_edges_sorted",
    "write_temporal_edge_list",
]

PathLike = Union[str, Path]

#: Default edges per chunk for :func:`iter_edge_chunks` — 64k pairs is
#: 1 MiB of int64 payload, small enough to bound streaming consumers
#: and large enough to amortize the per-chunk numpy conversion.
DEFAULT_CHUNK_EDGES = 65536


class EdgeListError(ValueError):
    """A malformed line in an edge list.

    Carries the 1-based ``line_no`` and the offending ``line`` so loader
    failures on multi-million-line files point at the exact record, not
    just the file.
    """

    def __init__(self, path: PathLike, line_no: int, line: str, reason: str):
        self.path = str(path)
        self.line_no = line_no
        self.line = line
        self.reason = reason
        super().__init__(f"{self.path}:{line_no}: {reason}: {line!r}")


def _data_lines(
    path: PathLike, chunk_edges: int
) -> Iterator[Tuple[List[int], List[str]]]:
    """Yield ``(line_nos, lines)`` for each run of ``chunk_edges`` data
    lines: stripped, with blank and ``#`` lines skipped and not counted,
    so chunk boundaries depend on the data rows alone."""
    if chunk_edges < 1:
        raise ValueError("chunk_edges must be >= 1")
    nos: list = []
    lines: list = []
    # Undecodable bytes become lone surrogates, so a bad line reaches
    # the per-line parser and fails there with its line number.
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            # line[0] over str.startswith: this loop is the reader's
            # per-line cost, and the method call was a third of it.
            if line and line[0] != "#":
                nos.append(line_no)
                lines.append(line)
                if len(lines) >= chunk_edges:
                    yield nos, lines
                    nos, lines = [], []
    if lines:
        yield nos, lines


@functools.lru_cache(maxsize=None)
def _strict_loadtxt() -> bool:
    """Whether ``np.loadtxt`` refuses ``1.5`` in an int64 column.

    Some numpy releases parse such tokens via float (with a
    ``DeprecationWarning``), which would accept what ``int()`` rejects;
    under those every chunk goes through the per-line parsers.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            np.loadtxt(["1.5"], dtype=np.int64, comments=None)
        except ValueError:
            return True
    return False


def _loadtxt(lines: List[str], **kwargs) -> Optional[np.ndarray]:
    """One ``np.loadtxt`` pass over a chunk's data lines, or ``None``
    when numpy refuses them (or cannot be trusted to refuse)."""
    if not _strict_loadtxt():
        return None
    try:
        # comments=None: a mid-line '#' is a field, as for str.split().
        return np.loadtxt(lines, comments=None, **kwargs)
    except ValueError:
        return None


def _parse_edge_line(
    path: PathLike, line_no: int, line: str
) -> Tuple[int, int]:
    parts = line.split()
    if len(parts) < 2:
        raise EdgeListError(
            path, line_no, line, f"expected 'u v', got {len(parts)} fields"
        )
    try:
        u = int(parts[0])
        v = int(parts[1])
    except ValueError:
        raise EdgeListError(
            path, line_no, line, "non-integer endpoint"
        ) from None
    if u < 0 or v < 0:
        raise EdgeListError(path, line_no, line, "negative endpoint")
    if max(u, v) >= 2**63:
        raise EdgeListError(path, line_no, line, "endpoint past int64")
    return u, v


def iter_edge_chunks(
    path: PathLike, chunk_edges: int = DEFAULT_CHUNK_EDGES
) -> Iterator[np.ndarray]:
    """Stream a SNAP-style edge list as ``(k, 2)`` int64 chunks.

    Yields at most ``chunk_edges`` edges per array, so peak memory is
    one chunk regardless of the file size — the primitive
    :func:`read_edge_list` is built on.  Comments (``#``) and
    blank lines are skipped; extra columns beyond ``u v`` are ignored.
    A line with fewer than two fields, or an endpoint that is not a
    non-negative int64, raises :class:`EdgeListError`.
    """
    for nos, lines in _data_lines(path, chunk_edges):
        pairs = _loadtxt(lines, dtype=np.int64, usecols=(0, 1), ndmin=2)
        if pairs is None or pairs.min() < 0:
            pairs = np.array(
                [_parse_edge_line(path, no, line)
                 for no, line in zip(nos, lines)],
                dtype=np.int64,
            )
        yield pairs


def read_edge_list(path: PathLike, n_vertices: int = None) -> CSRGraph:
    """Read a SNAP-style edge list (``u v`` per line, ``#`` comments).

    Parsing goes through :func:`iter_edge_chunks`, so the transient
    per-line strings are bounded to one chunk; only the packed int64
    edge array reaches full file size.
    """
    chunks = list(iter_edge_chunks(path))
    if chunks:
        arr = np.concatenate(chunks)
    else:
        arr = np.empty((0, 2), dtype=np.int64)
    return from_edge_array(arr, n_vertices=n_vertices)


def write_edge_list(graph: CSRGraph, path: PathLike, header: str = "") -> None:
    """Write each undirected edge once (``u v`` per line)."""
    with open(path, "w") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        for u, v in graph.edges():
            handle.write(f"{u} {v}\n")


def read_vertex_scalars(path: PathLike, n_vertices: int) -> np.ndarray:
    """Read a ``vertex value`` file into a dense float vector."""
    values = np.zeros(n_vertices, dtype=np.float64)
    seen = np.zeros(n_vertices, dtype=bool)
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            v, value = line.split()[:2]
            values[int(v)] = float(value)
            seen[int(v)] = True
    if not seen.all():
        missing = int((~seen).sum())
        raise ValueError(f"{missing} vertices have no scalar value")
    return values


def write_vertex_scalars(values: np.ndarray, path: PathLike) -> None:
    """Write a vertex scalar field, one ``vertex value`` line each."""
    with open(path, "w") as handle:
        for v, value in enumerate(values):
            handle.write(f"{v} {value:.10g}\n")


def read_edge_scalars(
    path: PathLike, graph: CSRGraph
) -> np.ndarray:
    """Read a ``u v value`` file into a vector aligned with edge ids."""
    values = np.zeros(graph.n_edges, dtype=np.float64)
    seen = np.zeros(graph.n_edges, dtype=bool)
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v, value = line.split()[:3]
            eid = graph.edge_id(int(u), int(v))
            values[eid] = float(value)
            seen[eid] = True
    if not seen.all():
        missing = int((~seen).sum())
        raise ValueError(f"{missing} edges have no scalar value")
    return values


def write_edge_scalars(
    graph: CSRGraph, values: np.ndarray, path: PathLike
) -> None:
    """Write an edge scalar field, one ``u v value`` line per edge."""
    if len(values) != graph.n_edges:
        raise ValueError("one value per edge required")
    with open(path, "w") as handle:
        for (u, v), value in zip(graph.edge_array(), values):
            handle.write(f"{u} {v} {value:.10g}\n")


# ---------------------------------------------------------------------------
# Temporal edge lists (``src dst ts [w]``)
# ---------------------------------------------------------------------------


class TemporalEdgeError(EdgeListError):
    """A malformed line in a timestamped (``src dst ts [w]``) edge list."""


def _parse_temporal_line(
    path: PathLike, line_no: int, line: str
) -> Tuple[int, int, float, float]:
    parts = line.split()
    if len(parts) < 3 or len(parts) > 4:
        raise TemporalEdgeError(
            path, line_no, line,
            f"expected 'src dst ts [w]', got {len(parts)} fields",
        )
    try:
        u = int(parts[0])
        v = int(parts[1])
    except ValueError:
        raise TemporalEdgeError(
            path, line_no, line, "non-integer endpoint"
        ) from None
    if u < 0 or v < 0:
        raise TemporalEdgeError(path, line_no, line, "negative endpoint")
    try:
        ts = float(parts[2])
    except ValueError:
        raise TemporalEdgeError(
            path, line_no, line, "non-numeric timestamp"
        ) from None
    if not math.isfinite(ts):
        raise TemporalEdgeError(
            path, line_no, line, "non-finite timestamp"
        )
    w = 1.0
    if len(parts) == 4:
        try:
            w = float(parts[3])
        except ValueError:
            raise TemporalEdgeError(
                path, line_no, line, "non-numeric weight"
            ) from None
        if not math.isfinite(w):
            raise TemporalEdgeError(path, line_no, line, "non-finite weight")
        if w < 0:
            raise TemporalEdgeError(path, line_no, line, "negative weight")
    return u, v, ts, w


_TEMPORAL_FIELDS = [
    ("u", np.int64), ("v", np.int64), ("ts", np.float64), ("w", np.float64)
]
#: loadtxt record layouts of ``src dst ts`` and ``src dst ts w`` lines.
_TEMPORAL_DTYPES = {k: np.dtype(_TEMPORAL_FIELDS[:k]) for k in (3, 4)}


def _temporal_rows(lines: List[str]) -> Optional[np.ndarray]:
    """The numpy pass over a chunk: ``(k, 4)`` rows, or ``None`` when
    loadtxt refuses the chunk (a mix of 3- and 4-field lines included)
    or a row fails a check."""
    dtype = _TEMPORAL_DTYPES.get(len(lines[0].split()))
    if dtype is None:
        return None
    records = _loadtxt(lines, dtype=dtype, ndmin=1)
    if records is None:
        return None
    rows = np.ones((len(records), 4))
    for col, name in enumerate(dtype.names):
        rows[:, col] = records[name]
    if rows[:, [0, 1, 3]].min() < 0 or not np.isfinite(rows[:, 2:]).all():
        return None
    return rows


def iter_temporal_edge_chunks(
    path: PathLike, chunk_edges: int = DEFAULT_CHUNK_EDGES
) -> Iterator[np.ndarray]:
    """Stream a ``src dst ts [w]`` log as ``(k, 4)`` float64 chunks.

    Columns are ``u, v, ts, w`` (weight defaults to 1).  Like
    :func:`iter_edge_chunks`, at most ``chunk_edges`` rows are buffered,
    ``#`` comments and blank lines are skipped — but malformed records
    raise :class:`TemporalEdgeError` with their line number rather than
    silently corrupting the stream.
    """
    for nos, lines in _data_lines(path, chunk_edges):
        rows = _temporal_rows(lines)
        if rows is None:
            rows = np.array(
                [_parse_temporal_line(path, no, line)
                 for no, line in zip(nos, lines)],
                dtype=np.float64,
            )
        yield rows


def _key_le(ts, run, cut: float, cut_run: int) -> np.ndarray:
    """Elementwise ``(ts, run) <= (cut, cut_run)``."""
    return (ts < cut) | ((ts == cut) & (run <= cut_run))


def _merge_runs(
    rows: np.ndarray, bounds: np.ndarray, chunk_edges: int
) -> Iterator[np.ndarray]:
    """Merge the ts-sorted runs ``rows[bounds[i]:bounds[i + 1]]``.

    Yields chunks of at most ``chunk_edges`` rows in ``(ts, run,
    position)`` order.  Each step plans a window per live run:
    ``chunk_edges`` rows for the run with the lowest head, ``max(64,
    chunk_edges // runs)`` for the others.  Among runs with rows beyond
    their window, the lowest window end key ``(ts, run)`` is the cut:
    every row at or below it lies inside a window, so those rows are
    gathered (from the runs whose head is at or below the cut) and
    emitted sorted.  A step holds at most ``2 * chunk_edges + 64 * runs``
    rows, and the floor of 64 keeps steps few when runs outnumber
    ``chunk_edges``.
    """
    ts = rows[:, 2]
    n_runs = len(bounds) - 1
    run = np.arange(n_runs)
    pos, end = bounds[:-1].copy(), bounds[1:]
    width = max(64, chunk_edges // n_runs)
    while (pos < end).any():
        head = np.where(pos < end, ts[np.minimum(pos, len(ts) - 1)], np.inf)
        want = np.full(n_runs, width)
        want[np.argmin(head)] = chunk_edges
        take = np.minimum(want, end - pos)
        # Runs are never empty, so pos + take - 1 is in range.
        last = np.where(pos + take < end, ts[pos + take - 1], np.inf)
        # With every run fully inside its window the cut is inf: all go.
        cut_run = int(np.argmin(last))
        cut = last[cut_run]
        take[~_key_le(head, run, cut, cut_run)] = 0
        stop = np.cumsum(take)
        got = rows[np.arange(stop[-1]) + np.repeat(pos - stop + take, take)]
        got_run = np.repeat(run, take)
        keep = _key_le(got[:, 2], got_run, cut, cut_run)
        got = got[keep]
        pos += np.bincount(got_run[keep], minlength=n_runs)
        got = got[np.argsort(got[:, 2], kind="stable")]
        for start in range(0, len(got), chunk_edges):
            yield got[start : start + chunk_edges]


def iter_temporal_edges_sorted(
    path: PathLike,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    scratch_dir: Optional[PathLike] = None,
    stats: Optional[Dict[str, int]] = None,
) -> Iterator[np.ndarray]:
    """Stream a temporal edge log globally sorted by timestamp.

    External merge sort built on :func:`iter_temporal_edge_chunks`: each
    chunk is stably sorted by ``ts`` and written, back to back with the
    others, to one scratch file in ``scratch_dir``; the memory-mapped
    runs are then merged a block at a time, yielding ``(k, 4)`` chunks
    of at most ``chunk_edges`` rows in non-decreasing timestamp order.
    Equal timestamps keep file order (stable sort + run-index
    tie-break), so the concatenated output equals
    ``rows[np.argsort(rows[:, 2], kind="stable")]`` over the whole
    file.  Peak memory stays at ``2 * chunk_edges + 64 * runs`` rows —
    the full log is never materialized.

    The spill pass sees every row, so it also reports the log's vertex
    bound: a ``stats`` dict, when given, receives ``n_vertices`` (the
    largest endpoint + 1; 0 for an empty log) after the whole log has
    been read and before the first chunk is yielded.
    """
    with tempfile.TemporaryFile(
        prefix="repro-tsort-", dir=scratch_dir
    ) as spill:
        bounds = [0]
        n_vertices = 0
        for chunk in iter_temporal_edge_chunks(path, chunk_edges):
            chunk[np.argsort(chunk[:, 2], kind="stable")].tofile(spill)
            bounds.append(bounds[-1] + len(chunk))
            n_vertices = max(n_vertices, int(chunk[:, :2].max()) + 1)
        if stats is not None:
            stats["n_vertices"] = n_vertices
        if len(bounds) == 1:
            return
        spill.flush()
        rows = np.memmap(
            spill, dtype=np.float64, mode="r", shape=(bounds[-1], 4)
        )
        yield from _merge_runs(rows, np.array(bounds), chunk_edges)


def write_temporal_edge_list(
    rows: "np.ndarray", path: PathLike, header: str = ""
) -> None:
    """Write ``(k, 4)`` ``u v ts w`` rows as a temporal edge list."""
    with open(path, "w") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        for u, v, ts, w in np.asarray(rows, dtype=np.float64):
            handle.write(f"{int(u)} {int(v)} {ts:.10g} {w:.10g}\n")
