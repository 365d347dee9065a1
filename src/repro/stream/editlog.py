"""Typed edit events and the JSONL edit-log format.

A *stream* is a sequence of transactions (batches); each batch is a list
of edits applied atomically to a :class:`~repro.stream.delta.DeltaGraph`
/ :class:`~repro.stream.incremental.StreamingScalarTree`.  Three edit
kinds cover the dynamic-scalar-field setting:

* :class:`SetScalar` — a vertex's field value changed;
* :class:`AddEdge` / :class:`RemoveEdge` — the graph itself changed.

The on-disk format is line-delimited JSON so recorded streams can be
replayed by the CLI (``repro stream``) and benchmarks::

    {"op": "set", "v": 3, "value": 2.5}
    {"op": "add", "u": 1, "v": 2}
    {"op": "remove", "u": 0, "v": 4}
    {"op": "commit"}
    {"op": "set", "v": 1, "value": 0.0}
    {"op": "commit", "t": 7.5}

``commit`` lines end a batch; an optional ``t`` carries the batch
timestamp for sliding-window replay (:mod:`repro.stream.window`).
Edits after the last ``commit`` form a final implicit batch.  A
malformed line raises :class:`EditLogError` with its 1-based number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

__all__ = [
    "SetScalar",
    "AddEdge",
    "RemoveEdge",
    "Edit",
    "Batch",
    "EditLogError",
    "edit_to_obj",
    "edit_from_obj",
    "write_edit_log",
    "read_edit_log",
    "iter_edit_log",
]


@dataclass(frozen=True)
class SetScalar:
    """Vertex ``vertex``'s scalar becomes ``value``."""

    vertex: int
    value: float


@dataclass(frozen=True)
class AddEdge:
    """The undirected edge ``(u, v)`` is inserted."""

    u: int
    v: int


@dataclass(frozen=True)
class RemoveEdge:
    """The undirected edge ``(u, v)`` is deleted."""

    u: int
    v: int


Edit = Union[SetScalar, AddEdge, RemoveEdge]
Batch = List[Edit]


class EditLogError(ValueError):
    """A malformed line in an edit log, with its 1-based ``line_no``."""

    def __init__(self, line_no: int, reason: str):
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"line {line_no}: {reason}")


def edit_to_obj(edit: Edit) -> dict:
    """The JSON-serialisable dict for one edit."""
    if isinstance(edit, SetScalar):
        return {"op": "set", "v": int(edit.vertex), "value": float(edit.value)}
    if isinstance(edit, AddEdge):
        return {"op": "add", "u": int(edit.u), "v": int(edit.v)}
    if isinstance(edit, RemoveEdge):
        return {"op": "remove", "u": int(edit.u), "v": int(edit.v)}
    raise TypeError(f"not an edit: {edit!r}")


def edit_from_obj(obj: dict) -> Edit:
    """Parse one non-commit JSONL record back into a typed edit.

    Raises ``ValueError`` for any malformed record (unknown op, missing
    or non-numeric fields), so log readers surface one exception type.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"edit record must be a JSON object, got {obj!r}")
    op = obj.get("op")
    try:
        if op == "set":
            return SetScalar(int(obj["v"]), float(obj["value"]))
        if op == "add":
            return AddEdge(int(obj["u"]), int(obj["v"]))
        if op == "remove":
            return RemoveEdge(int(obj["u"]), int(obj["v"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {op!r} edit {obj!r}: {exc}")
    raise ValueError(f"unknown edit op {op!r}")


def write_edit_log(
    path: Union[str, Path],
    batches: Iterable[Sequence[Edit]],
    times: Optional[Sequence[float]] = None,
) -> Path:
    """Write batches (with optional per-batch timestamps) as JSONL."""
    path = Path(path)
    times_list = None if times is None else list(times)
    with path.open("w", encoding="utf-8") as fh:
        for i, batch in enumerate(batches):
            for edit in batch:
                fh.write(json.dumps(edit_to_obj(edit)) + "\n")
            commit: dict = {"op": "commit"}
            if times_list is not None:
                commit["t"] = float(times_list[i])
            fh.write(json.dumps(commit) + "\n")
    return path


def _parse_record(line: str) -> Tuple[Optional[float], Optional[Edit]]:
    """``(timestamp, None)`` for a commit record, ``(None, edit)`` for
    an edit."""
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError(f"edit record must be a JSON object, got {obj!r}")
    if obj.get("op") == "commit":
        t = obj.get("t")
        return (None if t is None else float(t)), None
    return None, edit_from_obj(obj)


def iter_edit_log(lines: Iterable[str]) -> Iterator[Tuple[Optional[float], Batch]]:
    """Yield ``(timestamp, batch)`` pairs from JSONL lines, streaming.

    ``timestamp`` is ``None`` when the commit record carries no ``t``.
    Blank lines and ``#`` comments are skipped.  A trailing group of
    edits without a final ``commit`` is yielded as a last batch.  A
    malformed line raises :class:`EditLogError` naming it.
    """
    batch: Batch = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            when, edit = _parse_record(line)
        except json.JSONDecodeError as exc:
            # exc's own "line 1 column N" counts within the record.
            reason = f"{exc.msg} at column {exc.colno}"
            raise EditLogError(line_no, reason) from None
        except (ValueError, TypeError, OverflowError) as exc:
            raise EditLogError(line_no, str(exc)) from None
        if edit is None:
            yield when, batch
            batch = []
        else:
            batch.append(edit)
    if batch:
        yield None, batch


def read_edit_log(
    source: Union[str, Path, IO[str]]
) -> List[Tuple[Optional[float], Batch]]:
    """Read a whole JSONL edit log into ``[(timestamp, batch), ...]``."""
    if hasattr(source, "read"):
        return list(iter_edit_log(source))  # type: ignore[arg-type]
    # Undecodable bytes become lone surrogates, so a bad line fails in
    # the per-line parser with its line number.
    with Path(source).open(
        "r", encoding="utf-8", errors="surrogateescape"
    ) as fh:
        return list(iter_edit_log(fh))
