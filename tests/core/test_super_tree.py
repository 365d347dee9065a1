"""Unit tests for SuperTree and Algorithm 2."""

import numpy as np
import pytest

from repro import accel
from repro.core import (
    ScalarGraph,
    ScalarTree,
    SuperTree,
    build_super_tree,
    build_vertex_tree,
)
from repro.graph import from_edges


@pytest.fixture
def tied_tree():
    """Tree over path 0-1-2-3-4 with scalars [3, 2, 2, 2, 1]."""
    graph = from_edges([(0, 1), (1, 2), (2, 3), (3, 4)])
    return build_vertex_tree(ScalarGraph(graph, [3.0, 2.0, 2.0, 2.0, 1.0]))


class TestBuildSuperTree:
    def test_equal_chain_merged(self, tied_tree):
        st = build_super_tree(tied_tree)
        sizes = sorted(len(m) for m in st.members)
        assert sizes == [1, 1, 3]

    def test_strict_parent_ordering(self, tied_tree):
        st = build_super_tree(tied_tree)
        st.validate()
        for i, p in enumerate(st.parent):
            if p >= 0:
                assert st.scalars[p] < st.scalars[i]

    def test_members_partition_items(self, tied_tree):
        st = build_super_tree(tied_tree)
        all_items = sorted(x for m in st.members for x in m.tolist())
        assert all_items == list(range(5))

    def test_kind_propagates(self, tied_tree):
        assert build_super_tree(tied_tree).kind == "vertex"

    def test_distinct_values_identity(self, paper_fig2):
        st = build_super_tree(build_vertex_tree(paper_fig2))
        assert st.n_nodes == 9

    def test_n_items(self, tied_tree):
        assert build_super_tree(tied_tree).n_items == 5

    @pytest.mark.parametrize("backend", ["vector", "native"])
    @pytest.mark.parametrize("parent, scalars, item", [
        ([-1, 0], [2.0, 1.0], 1),
        ([-1, 0, 1], [2.0, 1.0, 3.0], 1),
        ([1, 0], [1.0, 1.0], 0),
        ([-1, 2, 1], [0.0, 1.0, 1.0], 1),
    ], ids=[
        "child-below-parent", "head-under-child-below-parent", "cycle",
        "cycle-beside-root",
    ])
    def test_malformed_tree_raises(self, backend, parent, scalars, item):
        """Every item must land in a super node: an item that no root
        reaches through non-decreasing scalars is an error on both tiers
        (``native`` is the vector tier on a host without a compiler)."""
        tree = ScalarTree(parent, scalars)
        with accel.using(backend), pytest.raises(
            ValueError, match=f"item {item} is not reached"
        ):
            build_super_tree(tree)


class TestSubtreeQueries:
    def test_subtree_items_and_sizes_agree(self, paper_fig2):
        st = build_super_tree(build_vertex_tree(paper_fig2))
        for node in range(st.n_nodes):
            assert st.subtree_size(node) == len(st.subtree_items(node))
        sizes = st.subtree_sizes()
        assert sizes.sum() >= st.n_items  # root subtree alone covers all

    def test_root_subtree_is_everything(self, paper_fig2):
        st = build_super_tree(build_vertex_tree(paper_fig2))
        [root] = st.roots
        assert set(st.subtree_items(root).tolist()) == set(range(9))

    def test_subtree_node_ids(self, paper_fig2):
        st = build_super_tree(build_vertex_tree(paper_fig2))
        [root] = st.roots
        assert set(st.subtree_node_ids(root).tolist()) == set(range(st.n_nodes))

    def test_is_ancestor(self, paper_fig2):
        st = build_super_tree(build_vertex_tree(paper_fig2))
        [root] = st.roots
        for node in range(st.n_nodes):
            assert st.is_ancestor(root, node)
            if node != root:
                assert not st.is_ancestor(node, root)

    def test_node_of_item(self, tied_tree):
        st = build_super_tree(tied_tree)
        for s, members in enumerate(st.members):
            for item in members:
                assert st.node_of_item(int(item)) == s


class TestComponentQueries:
    def test_components_at_above_max_empty(self, paper_fig2):
        st = build_super_tree(build_vertex_tree(paper_fig2))
        assert st.components_at(100.0) == []

    def test_components_at_minimum_covers_graph(self, paper_fig2):
        st = build_super_tree(build_vertex_tree(paper_fig2))
        comps = st.components_at(float(st.scalars.min()))
        assert sum(len(c) for c in comps) == 9

    def test_component_roots_parent_below_alpha(self, paper_fig2):
        st = build_super_tree(build_vertex_tree(paper_fig2))
        for alpha in (2.0, 2.5, 3.0, 4.0):
            for root in st.component_roots_at(alpha):
                assert st.scalars[root] >= alpha
                p = st.parent[root]
                assert p < 0 or st.scalars[p] < alpha


class TestValidate:
    def test_detects_non_strict_parent(self):
        st = SuperTree(
            np.array([1.0, 1.0]),
            np.array([-1, 0]),
            [np.array([0]), np.array([1])],
        )
        with pytest.raises(ValueError, match="strictly"):
            st.validate()

    def test_detects_non_partition(self):
        st = SuperTree(
            np.array([1.0, 2.0]),
            np.array([-1, 0]),
            [np.array([0]), np.array([0])],
        )
        with pytest.raises(ValueError, match="partition"):
            st.validate()

    @pytest.mark.parametrize("members", [
        [[0], [-1]],   # -1 would count as the last item
        [[0], [2]],    # past the two items
    ], ids=["negative", "past-end"])
    def test_detects_out_of_range_member(self, members):
        st = SuperTree(np.array([0.0, 1.0]), np.array([-1, 0]), members)
        with pytest.raises(ValueError, match="member ids"):
            st.validate()

    @pytest.mark.parametrize("parent", [[-1, 5], [-1, 2], [2, -1]],
                             ids=["far-past-end", "at-end", "root-past-end"])
    def test_detects_parent_out_of_range(self, parent):
        st = SuperTree(np.array([0.0, 1.0]), np.array(parent), [[0], [1]])
        with pytest.raises(ValueError, match="past the last of 2 super"):
            st.validate()

    def test_any_negative_parent_is_a_root(self):
        SuperTree(np.array([0.0, 1.0]), np.array([-3, 0]), [[0], [1]]).validate()

    def test_alignment_required(self):
        with pytest.raises(ValueError, match="align"):
            SuperTree(np.array([1.0]), np.array([-1, 0]), [np.array([0])])

    def test_repr(self, tied_tree):
        assert "n_items=5" in repr(build_super_tree(tied_tree))
