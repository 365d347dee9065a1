"""JSON (de)serialization of scalar trees and super trees.

Building the tree for a huge graph can dominate an analysis session;
persisting it lets the visualization side (or another process) reload
in milliseconds.  The format is a plain JSON document — stable,
diff-able, and language-agnostic.
"""

from __future__ import annotations

import json
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
    "tile_to_json",
    "tile_from_json",
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
    """Inverse of :func:`scalar_tree_to_json`."""
    doc = json.loads(text)
    _check(doc, "scalar_tree")
    return ScalarTree(
        np.array(doc["parent"], dtype=np.int64),
        np.array(doc["scalars"], dtype=np.float64),
        kind=doc["kind"],
    )


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
    doc = json.loads(text)
    _check(doc, "super_tree")
    tree = SuperTree(
        np.array(doc["scalars"], dtype=np.float64),
        np.array(doc["parent"], dtype=np.int64),
        [np.array(m, dtype=np.int64) for m in doc["members"]],
        kind=doc["kind"],
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
    doc = json.loads(text)
    if doc.get("type") == "super_tree":
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
    doc = json.loads(text)
    if doc.get("format") != _ARRAY_FORMAT or doc.get("type") != "array":
        raise ValueError(f"not a {_ARRAY_FORMAT} array document")
    return np.array(doc["data"], dtype=np.dtype(doc["dtype"])).reshape(
        doc["shape"]
    )


def tile_to_json(tile) -> str:
    """Serialize a terrain :class:`~repro.terrain.heightfield.Tile`.

    The cache's disk tier stores tiles in the same JSON envelope family
    as trees and arrays; the compact binary wire form
    (:meth:`Tile.to_bytes`) is only used on the serving path.
    """
    return json.dumps(
        {
            "format": _ARRAY_FORMAT,
            "type": "tile",
            "level": tile.level,
            "tx": tile.tx,
            "ty": tile.ty,
            "shape": list(tile.height.shape),
            "extent": list(tile.extent),
            "base": tile.base,
            "height": tile.height.ravel().tolist(),
            "node": tile.node.ravel().tolist(),
        }
    )


def tile_from_json(text: str):
    """Inverse of :func:`tile_to_json`."""
    from ..terrain.heightfield import Tile

    doc = json.loads(text)
    if doc.get("format") != _ARRAY_FORMAT or doc.get("type") != "tile":
        raise ValueError(f"not a {_ARRAY_FORMAT} tile document")
    shape = tuple(doc["shape"])
    return Tile(
        doc["level"], doc["tx"], doc["ty"],
        np.array(doc["height"], dtype=np.float64).reshape(shape),
        np.array(doc["node"], dtype=np.int64).reshape(shape),
        tuple(doc["extent"]),
        doc["base"],
    )


def artifact_to_json(obj) -> str:
    """Serialize any cacheable pipeline artifact (tree, array or tile).

    Raises ``TypeError`` for objects with no stable on-disk form (e.g.
    terrain layouts), which the cache keeps in memory only.
    """
    # Late import: terrain depends on core, so core can only reach the
    # Tile type at call time.
    from ..terrain.heightfield import Tile

    if isinstance(obj, SuperTree):
        return super_tree_to_json(obj)
    if isinstance(obj, ScalarTree):
        return scalar_tree_to_json(obj)
    if isinstance(obj, Tile):
        return tile_to_json(obj)
    if isinstance(obj, np.ndarray):
        return array_to_json(obj)
    raise TypeError(f"no serialized form for {type(obj).__name__}")


def artifact_from_json(text: str):
    """Inverse of :func:`artifact_to_json` (dispatch on document type)."""
    doc = json.loads(text)
    kind = doc.get("type")
    if kind == "super_tree":
        return super_tree_from_json(text)
    if kind == "scalar_tree":
        return scalar_tree_from_json(text)
    if kind == "array":
        return array_from_json(text)
    if kind == "tile":
        return tile_from_json(text)
    raise ValueError(f"unknown artifact document type {kind!r}")


def _check(doc: dict, expected: str) -> None:
    if doc.get("format") != _FORMAT:
        raise ValueError(f"not a {_FORMAT} document")
    if doc.get("type") != expected:
        raise ValueError(
            f"expected a {expected} document, got {doc.get('type')!r}"
        )
