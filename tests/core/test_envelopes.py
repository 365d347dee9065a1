"""Malformed envelopes: every decoder returns a valid object or raises
``ValueError`` naming the problem.

The decoders are :meth:`Tile.from_bytes` (the serve wire form) and the
JSON loaders of :mod:`repro.core.serialize` (saved trees and the disk
tier of the artifact cache).  The reproductions are inputs that once
escaped as ``struct.error``, ``KeyError``, ``TypeError``,
``OverflowError``, ``AttributeError`` or an unlabelled
``JSONDecodeError``; the fuzzes mutate the bytes and the fields of
valid envelopes.
"""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ScalarGraph,
    build_super_tree,
    build_vertex_tree,
    scalar_tree_from_json,
    scalar_tree_to_json,
    super_tree_from_json,
    super_tree_to_json,
)
from repro.core.scalar_tree import ScalarTree
from repro.core.serialize import artifact_from_json, artifact_to_json
from repro.core.super_tree import SuperTree
from repro.graph import from_edges
from repro.terrain.heightfield import Tile

_RAW = build_vertex_tree(ScalarGraph(
    from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)]),
    [3.0, 2.0, 2.0, 2.0, 1.0, 4.0],
))
_SUPER = build_super_tree(_RAW)
_TILE = Tile(
    1, 2, 3, np.arange(6.0).reshape(2, 3) / 4, np.arange(6).reshape(2, 3),
    (0.0, 1.0, 0.5, 2.0), -0.25,
)
SCALAR_TEXT = scalar_tree_to_json(_RAW)
SUPER_TEXT = super_tree_to_json(_SUPER)
ARTIFACT_TEXTS = [
    SCALAR_TEXT,
    SUPER_TEXT,
    artifact_to_json(np.arange(6.0).reshape(3, 2)),
    artifact_to_json(np.array([[1, -2], [3, 4]], dtype=np.int32)),
    artifact_to_json(np.array([True, False])),
]
TILE_BYTES = _TILE.to_bytes()
_HEADER_AT = 12  # magic (8 bytes) + header length (4 bytes)


def _tile_payload(header) -> bytes:
    head = json.dumps(header).encode()
    body = TILE_BYTES[_HEADER_AT + struct.unpack_from("<I", TILE_BYTES, 8)[0]:]
    return TILE_BYTES[:8] + struct.pack("<I", len(head)) + head + body


def _tile_header() -> dict:
    (length,) = struct.unpack_from("<I", TILE_BYTES, 8)
    return json.loads(TILE_BYTES[_HEADER_AT: _HEADER_AT + length])


def _without(text, field):
    doc = json.loads(text)
    del doc[field]
    return json.dumps(doc)


def _with(text, **fields):
    return json.dumps({**json.loads(text), **fields})


# -- validity oracles -------------------------------------------------------


def _valid_scalar_tree(tree):
    assert isinstance(tree, ScalarTree)
    assert tree.parent.ndim == 1 and tree.parent.shape == tree.scalars.shape
    tree.validate()


def _valid_super_tree(tree):
    assert isinstance(tree, SuperTree)
    assert tree.parent.dtype == np.int64 and tree.scalars.dtype == np.float64
    tree.validate()


def _valid_tile(tile):
    assert isinstance(tile, Tile)
    assert tile.height.ndim == 2 and tile.height.shape == tile.node.shape
    assert len(tile.extent) == 4


def _valid_artifact(obj):
    if isinstance(obj, SuperTree):
        _valid_super_tree(obj)
    elif isinstance(obj, ScalarTree):
        _valid_scalar_tree(obj)
    else:
        assert isinstance(obj, np.ndarray) and obj.dtype.kind in "fiub"


def _decodes_or_value_error(decode, payload, valid):
    try:
        obj = decode(payload)
    except ValueError as exc:
        assert type(exc) is ValueError, repr(exc)
        assert str(exc)
        return
    valid(obj)


# -- reproductions ----------------------------------------------------------


@pytest.mark.parametrize("payload, match", [
    (TILE_BYTES[:9], "truncated tile payload"),
    (_tile_payload({k: v for k, v in _tile_header().items() if k != "level"}),
     "no 'level'"),
    (_tile_payload({**_tile_header(), "extent": 5}), "'extent' is 5"),
    (_tile_payload({**_tile_header(), "shape": "2x3"}), "'shape'"),
    (_tile_payload({**_tile_header(), "base": 10 ** 400}), "'base'"),
    (_tile_payload([1, 2]), "not an object"),
    (TILE_BYTES[:_HEADER_AT] + b"x" + TILE_BYTES[_HEADER_AT + 1:],
     "bad tile header"),
], ids=[
    "shorter-than-header", "no-level", "numeric-extent", "string-shape",
    "huge-base", "list-header", "broken-header",
])
def test_tile_from_bytes_names_the_problem(payload, match):
    with pytest.raises(ValueError, match=match) as exc:
        Tile.from_bytes(payload)
    assert exc.type is ValueError


@pytest.mark.parametrize("decode, text, match", [
    (scalar_tree_from_json, _without(SCALAR_TEXT, "parent"), "no 'parent'"),
    (scalar_tree_from_json, _with(SCALAR_TEXT, parent=5), "'parent'"),
    (scalar_tree_from_json, _with(SCALAR_TEXT, parent=[10 ** 30] * 6),
     "'parent'"),
    (scalar_tree_from_json, _with(SCALAR_TEXT, scalars=[None] * 6),
     "'scalars'"),
    (scalar_tree_from_json, _with(SCALAR_TEXT, parent=[-1, 7, 1, 2, 3, 1]),
     "orphan"),
    (super_tree_from_json, _without(SUPER_TEXT, "members"), "no 'members'"),
    (super_tree_from_json, _with(SUPER_TEXT, members=3), "'members'"),
    (super_tree_from_json, _with(SUPER_TEXT, scalars=[10 ** 400] * 4),
     "'scalars'"),
    (super_tree_from_json, _with(SUPER_TEXT, kind=["vertex"]), "kind"),
    (artifact_from_json, "[1, 2, 3]", "not a JSON object"),
    (artifact_from_json, _with(ARTIFACT_TEXTS[2], shape=[4, 2]),
     "for 6 values"),
    (artifact_from_json, _with(ARTIFACT_TEXTS[2], dtype="float128x"),
     "dtype"),
    (artifact_from_json, _with(ARTIFACT_TEXTS[2], type="tile"),
     "unknown artifact document type 'tile'"),
], ids=[
    "scalar-no-parent", "scalar-int-parent", "scalar-huge-parent",
    "scalar-null-scalars", "scalar-parent-past-end", "super-no-members",
    "super-int-members", "super-huge-scalars", "super-list-kind",
    "artifact-list", "array-shape", "array-dtype", "tile-document",
])
def test_loaders_name_the_problem(decode, text, match):
    with pytest.raises(ValueError, match=match) as exc:
        decode(text)
    assert exc.type is ValueError


def test_valid_envelopes_still_decode():
    _valid_scalar_tree(scalar_tree_from_json(SCALAR_TEXT))
    _valid_super_tree(super_tree_from_json(SUPER_TEXT))
    assert Tile.from_bytes(TILE_BYTES) == _TILE
    for text in ARTIFACT_TEXTS:
        _valid_artifact(artifact_from_json(text))


# -- fuzzes -----------------------------------------------------------------

_JSON_VALUES = st.one_of(
    st.none(), st.booleans(),
    st.integers(-3, 12), st.sampled_from([-(2 ** 63), 2 ** 63, 10 ** 30]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.integers(-2, 8), max_size=7),
    st.lists(st.floats(-4, 4), max_size=7),
    st.lists(st.lists(st.integers(-1, 6), max_size=3), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@st.composite
def _byte_mutations(draw, payload: bytes):
    """Up to four single-byte replacements, insertions or deletions."""
    data = bytearray(payload)
    for __ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = draw(st.integers(0, 255))
        if op == "insert":
            data.insert(at, byte)
        elif at < len(data):
            if op == "replace":
                data[at] = byte
            else:
                del data[at]
    return bytes(data)


@st.composite
def _field_mutations(draw, doc: dict):
    """Drop a field, retype it, or replace one element of a list field."""
    doc = json.loads(json.dumps(doc))
    key = draw(st.sampled_from(sorted(doc)))
    op = draw(st.sampled_from(["drop", "retype", "element"]))
    if op == "drop":
        del doc[key]
    elif op == "element" and isinstance(doc[key], list) and doc[key]:
        at = draw(st.integers(0, len(doc[key]) - 1))
        doc[key][at] = draw(_JSON_VALUES)
    else:
        doc[key] = draw(_JSON_VALUES)
    return doc


_LOADERS = [
    (scalar_tree_from_json, SCALAR_TEXT, _valid_scalar_tree),
    (super_tree_from_json, SUPER_TEXT, _valid_super_tree),
] + [(artifact_from_json, text, _valid_artifact) for text in ARTIFACT_TEXTS]


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(_LOADERS), data=st.data())
def test_loader_byte_fuzz(case, data):
    decode, text, valid = case
    mutated = data.draw(_byte_mutations(text.encode()))
    _decodes_or_value_error(decode, mutated.decode("latin-1"), valid)


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from(_LOADERS), data=st.data())
def test_loader_field_fuzz(case, data):
    decode, text, valid = case
    mutated = data.draw(_field_mutations(json.loads(text)))
    _decodes_or_value_error(decode, json.dumps(mutated), valid)


@settings(max_examples=60, deadline=None)
@given(payload=_byte_mutations(TILE_BYTES))
def test_tile_byte_fuzz(payload):
    _decodes_or_value_error(Tile.from_bytes, payload, _valid_tile)


@settings(max_examples=60, deadline=None)
@given(header=_field_mutations(_tile_header()))
def test_tile_header_fuzz(header):
    _decodes_or_value_error(Tile.from_bytes, _tile_payload(header), _valid_tile)
