"""Unit tests for tree (de)serialization."""

import json

import numpy as np
import pytest

from repro.core import (
    ScalarGraph,
    build_super_tree,
    build_vertex_tree,
    load_tree,
    save_tree,
    scalar_tree_from_json,
    scalar_tree_to_json,
    super_tree_from_json,
    super_tree_to_json,
)
from repro.core.scalar_tree import ScalarTree
from repro.core.super_tree import SuperTree
from repro.graph import from_edges


@pytest.fixture
def trees():
    graph = from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
    sg = ScalarGraph(graph, [3.0, 2.0, 2.0, 2.0, 1.0])
    raw = build_vertex_tree(sg)
    return raw, build_super_tree(raw)


class TestScalarTreeRoundtrip:
    def test_roundtrip(self, trees):
        raw, __ = trees
        back = scalar_tree_from_json(scalar_tree_to_json(raw))
        assert np.array_equal(back.parent, raw.parent)
        assert np.array_equal(back.scalars, raw.scalars)
        assert back.kind == raw.kind

    def test_edge_kind_preserved(self):
        tree = ScalarTree(
            np.array([-1, 0]), np.array([1.0, 2.0]), kind="edge"
        )
        assert scalar_tree_from_json(scalar_tree_to_json(tree)).kind == "edge"

    def test_wrong_type_rejected(self, trees):
        __, st = trees
        with pytest.raises(ValueError, match="expected"):
            scalar_tree_from_json(super_tree_to_json(st))

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="not a"):
            scalar_tree_from_json('{"hello": 1}')


class TestSuperTreeRoundtrip:
    def test_roundtrip(self, trees):
        __, st = trees
        back = super_tree_from_json(super_tree_to_json(st))
        assert np.array_equal(back.parent, st.parent)
        assert np.array_equal(back.scalars, st.scalars)
        assert all(
            np.array_equal(a, b) for a, b in zip(back.members, st.members)
        )
        back.validate()

    @pytest.mark.parametrize("parent, scalars, match", [
        ([-1, 5], [0.0, 1.0], "past the last"),
        ([-1, 0], [1.0, 1.0], "strictly below"),
    ], ids=["parent-past-end", "parent-not-below"])
    def test_malformed_document_is_rejected(self, parent, scalars, match):
        text = json.dumps({
            "format": "repro-scalar-tree/1", "type": "super_tree",
            "kind": "vertex", "parent": parent, "scalars": scalars,
            "members": [[0], [1]],
        })
        with pytest.raises(ValueError, match=match):
            super_tree_from_json(text)

    def test_queries_survive(self, trees):
        __, st = trees
        back = super_tree_from_json(super_tree_to_json(st))
        for alpha in (1.0, 2.0, 3.0):
            a = sorted(tuple(sorted(c)) for c in st.components_at(alpha))
            b = sorted(tuple(sorted(c)) for c in back.components_at(alpha))
            assert a == b


class TestFileDispatch:
    def test_save_load_scalar_tree(self, trees, tmp_path):
        raw, __ = trees
        path = save_tree(raw, tmp_path / "t.json")
        loaded = load_tree(path)
        assert isinstance(loaded, ScalarTree)
        assert np.array_equal(loaded.parent, raw.parent)

    def test_save_load_super_tree(self, trees, tmp_path):
        __, st = trees
        path = save_tree(st, tmp_path / "s.json")
        loaded = load_tree(path)
        assert isinstance(loaded, SuperTree)
        assert loaded.n_nodes == st.n_nodes

    def test_save_wrong_type(self, tmp_path):
        with pytest.raises(TypeError):
            save_tree({"not": "a tree"}, tmp_path / "x.json")
