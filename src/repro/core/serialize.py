"""JSON (de)serialization of scalar trees and super trees.

Building the tree for a huge graph can dominate an analysis session;
persisting it lets the visualization side (or another process) reload
in milliseconds.  The format is a plain JSON document — stable,
diff-able, and language-agnostic.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Union

import numpy as np

from .scalar_tree import ScalarTree
from .super_tree import SuperTree

__all__ = [
    "scalar_tree_to_json",
    "scalar_tree_from_json",
    "super_tree_to_json",
    "super_tree_from_json",
    "save_tree",
    "load_tree",
    "array_to_json",
    "array_from_json",
    "artifact_to_json",
    "artifact_from_json",
]

PathLike = Union[str, Path]
_FORMAT = "repro-scalar-tree/1"
_ARRAY_FORMAT = "repro-artifact/1"


def scalar_tree_to_json(tree: ScalarTree) -> str:
    """Serialize a :class:`ScalarTree` to a JSON string."""
    return json.dumps(
        {
            "format": _FORMAT,
            "type": "scalar_tree",
            "kind": tree.kind,
            "parent": tree.parent.tolist(),
            "scalars": tree.scalars.tolist(),
        }
    )


def scalar_tree_from_json(text: str) -> ScalarTree:
    """Inverse of :func:`scalar_tree_to_json`; the loaded tree is
    validated (:meth:`ScalarTree.validate`)."""
    doc = _document(text)
    _check(doc, "scalar_tree")
    tree = ScalarTree(
        _numbers(doc, "parent", _INTS),
        _numbers(doc, "scalars", _REALS),
        kind=_field(doc, "kind"),
    )
    tree.validate()
    return tree


def super_tree_to_json(tree: SuperTree) -> str:
    """Serialize a :class:`SuperTree` to a JSON string."""
    return json.dumps(
        {
            "format": _FORMAT,
            "type": "super_tree",
            "kind": tree.kind,
            "parent": tree.parent.tolist(),
            "scalars": tree.scalars.tolist(),
            "members": [m.tolist() for m in tree.members],
        }
    )


def super_tree_from_json(text: str) -> SuperTree:
    """Inverse of :func:`super_tree_to_json`; the loaded tree is
    validated (:meth:`SuperTree.validate`), so a malformed document
    raises ``ValueError`` here rather than reaching layout."""
    doc = _document(text)
    _check(doc, "super_tree")
    members = _field(doc, "members")
    if not isinstance(members, list):
        raise ValueError(f"'members' is not a list: {members!r:.40}")
    tree = SuperTree(
        _numbers(doc, "scalars", _REALS),
        _numbers(doc, "parent", _INTS),
        [_flat(m, "members", _INTS) for m in members],
        kind=_field(doc, "kind"),
    )
    tree.validate()
    return tree


def save_tree(tree, path: PathLike) -> Path:
    """Save either tree type to ``path`` (dispatch on type)."""
    if isinstance(tree, SuperTree):
        text = super_tree_to_json(tree)
    elif isinstance(tree, ScalarTree):
        text = scalar_tree_to_json(tree)
    else:
        raise TypeError("expected ScalarTree or SuperTree")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def load_tree(path: PathLike):
    """Load whichever tree type ``path`` holds."""
    text = Path(path).read_text()
    if _document(text).get("type") == "super_tree":
        return super_tree_from_json(text)
    return scalar_tree_from_json(text)


def array_to_json(arr: np.ndarray) -> str:
    """Serialize a numeric numpy array (any shape) to a JSON string.

    Together with the tree documents this is the cache storage format of
    :mod:`repro.engine.cache`: every persistable pipeline artifact is a
    tree or a numeric array.
    """
    arr = np.asarray(arr)
    if arr.dtype.kind not in "fiub":
        raise TypeError(f"cannot serialize array of dtype {arr.dtype}")
    return json.dumps(
        {
            "format": _ARRAY_FORMAT,
            "type": "array",
            "dtype": arr.dtype.name,
            "shape": list(arr.shape),
            "data": arr.ravel().tolist(),
        }
    )


def array_from_json(text: str) -> np.ndarray:
    """Inverse of :func:`array_to_json`."""
    doc = _document(text)
    _check(doc, "array", _ARRAY_FORMAT)
    name = _field(doc, "dtype")
    if not isinstance(name, str) or name not in _ARRAY_DTYPES:
        raise ValueError(f"bad array dtype {name!r:.40}")
    dtype = np.dtype(name)
    data = _numbers(doc, "data", _REALS)
    if len(data) and not np.can_cast(data.dtype, dtype, "same_kind"):
        raise ValueError(f"{data.dtype} array data for dtype {dtype}")
    shape = _field(doc, "shape")
    if not (
        isinstance(shape, list)
        and all(type(n) is int and n >= 0 for n in shape)
        and math.prod(shape) == len(data)
    ):
        raise ValueError(f"'shape' {shape!r:.40} for {len(data)} values")
    return data.astype(dtype).reshape(shape)


def artifact_to_json(obj) -> str:
    """Serialize any cacheable pipeline artifact (tree or array).

    Raises ``TypeError`` for objects with no stable on-disk form (e.g.
    terrain layouts), which the cache keeps in memory only.
    """
    if isinstance(obj, SuperTree):
        return super_tree_to_json(obj)
    if isinstance(obj, ScalarTree):
        return scalar_tree_to_json(obj)
    if isinstance(obj, np.ndarray):
        return array_to_json(obj)
    raise TypeError(f"no serialized form for {type(obj).__name__}")


def artifact_from_json(text: str):
    """Inverse of :func:`artifact_to_json` (dispatch on document type).
    Like every loader here: a valid object, or ``ValueError``."""
    kind = _document(text).get("type")
    if kind == "super_tree":
        return super_tree_from_json(text)
    if kind == "scalar_tree":
        return scalar_tree_from_json(text)
    if kind == "array":
        return array_from_json(text)
    raise ValueError(f"unknown artifact document type {kind!r:.40}")


#: numpy kinds accepted for integer and for real arrays.
_INTS = "bi"
_REALS = "biuf"
#: The dtype names :func:`array_to_json` writes.
_ARRAY_DTYPES = {
    np.dtype(code).name
    for code in "?" + np.typecodes["AllInteger"] + np.typecodes["Float"]
}


def _document(text: str) -> dict:
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise ValueError(f"not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"not a JSON object: {doc!r:.40}")
    return doc


def _check(doc: dict, expected: str, fmt: str = _FORMAT) -> None:
    if doc.get("format") != fmt:
        raise ValueError(f"not a {fmt} document")
    if doc.get("type") != expected:
        raise ValueError(
            f"expected a {expected} document, got {doc.get('type')!r:.40}"
        )


def _field(doc: dict, name: str):
    if name not in doc:
        raise ValueError(f"{doc.get('type')} document has no {name!r}")
    return doc[name]


def _numbers(doc: dict, name: str, kinds: str) -> np.ndarray:
    return _flat(_field(doc, name), name, kinds)


def _flat(value, name: str, kinds: str) -> np.ndarray:
    """``value`` as a flat array, ``ValueError`` unless it is a list of
    numbers of a numpy kind in ``kinds``."""
    arr = None
    if isinstance(value, list):
        try:
            arr = np.array(value)
        except ValueError:  # a ragged nesting
            pass
    flat = arr is not None and arr.ndim == 1
    if not flat or (len(arr) and arr.dtype.kind not in kinds):
        raise ValueError(f"{name!r} is not a list of numbers: {value!r:.40}")
    return arr
