"""The self-compiled native tier: lifecycle, fallback, equivalence.

Covers the compile/cache/load machinery of :mod:`repro.accel.native`
(first use compiles, second load reuses the cached ``.so``), the soft
fallback when the toolchain is missing or broken (``CC=/bin/false`` →
vector, one warning, a counter), the resolution semantics of the
``native`` mode, the property-wise oracle ≡ vector ≡ native contract,
the super-tree kernel against the Python walk of Algorithm 2, the
streaming replay kernel's state reconstruction, and the
``rank_order`` memoization (once-per-build regression).
"""

import logging
import subprocess

import numpy as np
import pytest
from hypothesis import example, given, settings

from repro import accel
from repro.accel import native
from repro.accel import tree as accel_tree
from repro.core import (
    EdgeScalarGraph, ScalarGraph, ScalarTree, build_vertex_tree,
)
from repro.core.edge_tree import build_edge_tree
from repro.core.super_tree import _chain_bfs
from repro.graph import from_edges
from repro.graph.generators import erdos_renyi

from accel_strategies import forests, scalar_fields
from oracles import oracle_edge_tree, oracle_vertex_tree

# A real probe, not just "some compiler name resolves": hosts where the
# toolchain is present but broken (CI masks it with CC=/bin/false) must
# *skip* the compile-requiring tests and exercise the fallback path
# instead.  load() memoizes, so this costs one cached-.so open on a
# healthy host and one fast failed compile on a masked one.
HAVE_CC = native.load() is not None


@pytest.fixture(autouse=True)
def _restore_backend():
    previous = accel.get_backend()
    yield
    accel.set_backend(previous)


@pytest.fixture
def fresh_native(monkeypatch, tmp_path):
    """Scratch cache dir + forgotten load attempt; state is restored
    (and the attempt reset again) afterwards so one test's forced
    failure can't poison the rest of the session."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "so-cache"))
    native.reset()
    yield tmp_path / "so-cache"
    native.reset()


def _field(n=200, m=500, seed=0):
    rng = np.random.default_rng(seed)
    graph = erdos_renyi(n, m, seed=seed)
    scalars = rng.integers(0, 12, graph.n_vertices).astype(np.float64)
    return ScalarGraph(graph, scalars)


# ----------------------------------------------------------------------
# Compile / cache / load lifecycle
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on this host")
class TestLifecycle:
    def test_first_use_compiles_and_caches(self, fresh_native):
        assert native.available()
        info = native.info()
        assert info["available"] is True
        assert info["compiled"] is True
        assert info["so_path"] is not None
        assert list(fresh_native.glob("*.so")), "no cached shared object"

    def test_second_load_hits_cached_so(self, fresh_native, monkeypatch):
        assert native.available()
        so_files = list(fresh_native.glob("*.so"))
        assert len(so_files) == 1
        # Forget the in-process load; break the compiler.  The reload
        # must succeed purely from the cached .so without compiling.
        native.reset()

        def _no_compile(*args, **kwargs):
            raise AssertionError("cached .so should bypass the compiler")

        monkeypatch.setattr(native.subprocess, "run", _no_compile)
        # The digest needs the compiler banner; pin it so the key (and
        # so the cache filename) matches the first load's.
        monkeypatch.setattr(
            native, "_compiler_banner", lambda cc: "pinned-banner"
        )
        # First compute the digest the pinned banner produces and alias
        # the existing .so under it (banner goes into the key).
        cc = native._compiler()
        expected = fresh_native / f"repro_native_{native._digest(cc)}.so"
        if not expected.exists():
            expected.write_bytes(so_files[0].read_bytes())
        assert native.available()
        assert native.info()["compiled"] is False

    def test_poisoned_cache_is_rejected(self, fresh_native):
        fresh_native.mkdir(parents=True, exist_ok=True)
        cc = native._compiler()
        bad = fresh_native / f"repro_native_{native._digest(cc)}.so"
        bad.write_bytes(b"\x7fELF this is not a shared object")
        assert not native.available()
        assert "load-failed" in native.info()["error"]
        assert not bad.exists(), "poisoned .so should be deleted"

    @staticmethod
    def _cache_wrong_kernel(cache, guard, replacement, name):
        """Compile C_SOURCE with ``guard`` replaced into the cache slot
        the next load will open; returns its path."""
        assert guard in native.C_SOURCE
        cache.mkdir(parents=True, exist_ok=True)
        cc = native._compiler()
        bad = cache / f"repro_native_{native._digest(cc)}.so"
        source = cache / f"{name}.c"
        source.write_text(native.C_SOURCE.replace(guard, replacement))
        subprocess.run(
            cc + [*native.CFLAGS, "-o", str(bad), str(source)], check=True,
        )
        return bad

    def test_wrong_truss_answer_is_rejected(self, fresh_native):
        """A cached .so whose truss peel is wrong (stale source, corrupt
        build) fails the known-answer self-test and is deleted."""
        bad = self._cache_wrong_kernel(
            fresh_native, "if (s <= k)", "if (1)", "no_decrements"
        )
        assert not native.available()
        assert "self-test" in native.info()["error"]
        assert not bad.exists(), "a wrong-answer .so should be deleted"

    def test_wrong_zbuffer_answer_is_rejected(self, fresh_native):
        """A z-buffer that lets the later of two tied faces win (``<=``
        for ``<``) fails the self-test, and its .so is deleted."""
        bad = self._cache_wrong_kernel(
            fresh_native, "if (z < zrow[px])", "if (z <= zrow[px])",
            "later_tie_wins",
        )
        assert not native.available()
        assert "self-test" in native.info()["error"]
        assert not bad.exists(), "a wrong-answer .so should be deleted"

    def test_wrong_super_tree_answer_is_rejected(self, fresh_native):
        """A super-tree walk that also merges a child above its parent
        (``>=`` for ``==``) fails the self-test, and its .so is deleted."""
        bad = self._cache_wrong_kernel(
            fresh_native, "if (scalars[child[c]] == scalars[u])",
            "if (scalars[child[c]] >= scalars[u])", "merges_rising_child",
        )
        assert not native.available()
        assert "self-test" in native.info()["error"]
        assert not bad.exists(), "a wrong-answer .so should be deleted"

    @pytest.mark.parametrize("field, index, value", [
        ("box", (1, 0), 5),      # max_x past the 4-pixel width
        ("box", (2, 1), -1),     # min_y above the image
        ("faces", (2, 0), 6),    # a corner past the 6 vertices
        ("keep", (0,), 3),       # a face past the 3 faces
        ("xy", None, None),      # one vertex short
    ])
    def test_zbuffer_rejects_out_of_range_input(self, field, index, value):
        """The C z-buffer trusts its indices, so the wrapper checks them."""
        corners = [(0, 0), (4, 0), (0, 4), (0, 0), (4, 0), (4, 4)]
        args = {
            "xy": np.array(corners, dtype=np.float64),
            "depth": np.repeat([2.0, 1.0], 3),
            "faces": np.array([(0, 1, 2), (3, 4, 5), (0, 1, 2)]),
            "box": np.array([[0] * 3, [4] * 3, [0] * 3, [4] * 3]),
            "keep": np.arange(3),
        }
        assert native.zbuffer(**args, width=4, height=4).tolist() == (
            native._ZBUFFER_OWNERS
        )
        if index is None:
            args[field] = args[field][:-1]
        else:
            args[field][index] = value
        with pytest.raises(ValueError, match="zbuffer"):
            native.zbuffer(**args, width=4, height=4)

    def test_kernel_output_matches_python_scan(self, fresh_native):
        rng = np.random.default_rng(7)
        n = 300
        cur_raw = rng.integers(0, n, 900)
        cur = np.sort(cur_raw).astype(np.int64)
        prev = rng.integers(0, n, 900).astype(np.int64)
        with accel.using("vector"):
            expected = accel_tree.merge_scan(n, cur, prev)
        got = native.merge_scan(n, cur, prev)
        assert np.array_equal(expected, got)


# ----------------------------------------------------------------------
# Forced-failure fallback
# ----------------------------------------------------------------------
class TestFallback:
    def test_cc_false_falls_back_with_warning_and_counter(
        self, fresh_native, monkeypatch, caplog
    ):
        monkeypatch.setenv("CC", "/bin/false")
        before = native._FALLBACKS.value(reason="compile-failed")
        with caplog.at_level(logging.WARNING, "repro.accel.native"):
            assert not native.available()
        assert native._FALLBACKS.value(reason="compile-failed") == before + 1
        assert any(
            "falling back" in r.getMessage() for r in caplog.records
        ), "fallback must log one warning"
        info = native.info()
        assert info["available"] is False
        assert "compile-failed" in info["error"]

    def test_no_compiler_reason(self, fresh_native, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent/not-a-compiler")
        before = native._FALLBACKS.value(reason="no-compiler")
        assert not native.available()
        assert native._FALLBACKS.value(reason="no-compiler") == before + 1

    def test_resolve_degrades_native_to_vector(
        self, fresh_native, monkeypatch
    ):
        monkeypatch.setenv("CC", "/bin/false")
        accel.set_backend("native")
        assert accel.resolve(native=True) == "vector"

    def test_builds_still_work_without_toolchain(
        self, fresh_native, monkeypatch
    ):
        monkeypatch.setenv("CC", "/bin/false")
        sg = _field(seed=3)
        with accel.using("native"):
            tree = build_vertex_tree(sg)
        assert np.array_equal(tree.parent, oracle_vertex_tree(sg).parent)


# ----------------------------------------------------------------------
# Resolution semantics
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on this host")
class TestResolveNative:
    def test_native_mode_resolves_native_at_kernel_sites(self):
        accel.set_backend("native")
        assert accel.resolve(native=True) == "native"

    def test_native_mode_is_vector_at_plain_sites(self):
        """A call site that declares no compiled kernel gets the vector
        tier."""
        accel.set_backend("native")
        assert accel.resolve() == "vector"

    def test_backend_stays_out_of_results(self):
        """Byte-identical outputs are what keep the backend out of
        cache keys; spot-check a real build on both tiers against the
        loop oracle."""
        sg = _field(n=400, m=1100, seed=11)
        parents = [oracle_vertex_tree(sg).parent]
        for tier in ("vector", "native"):
            with accel.using(tier):
                parents.append(build_vertex_tree(sg).parent)
        assert np.array_equal(parents[0], parents[1])
        assert np.array_equal(parents[1], parents[2])


# ----------------------------------------------------------------------
# Property equivalence: oracle ≡ vector ≡ native
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on this host")
class TestEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(scalar_fields())
    def test_vertex_tree_three_way(self, field):
        graph, scalars = field
        sg = ScalarGraph(graph, scalars)
        oracle = oracle_vertex_tree(sg).parent
        with accel.using("vector"):
            vector = build_vertex_tree(sg).parent
        with accel.using("native"):
            nat = build_vertex_tree(sg).parent
        assert np.array_equal(oracle, vector)
        assert np.array_equal(vector, nat)

    @settings(max_examples=25, deadline=None)
    @given(scalar_fields())
    def test_edge_tree_three_way(self, field):
        from repro.core import EdgeScalarGraph

        graph, vertex_scalars = field
        rng = np.random.default_rng(graph.n_edges % 97)
        edge_scalars = rng.integers(0, 4, graph.n_edges).astype(np.float64)
        eg = EdgeScalarGraph(graph, edge_scalars)
        with accel.using("native"):
            nat = build_edge_tree(eg).parent
        assert np.array_equal(oracle_edge_tree(eg).parent, nat)


# ----------------------------------------------------------------------
# Super trees (Algorithm 2): C kernel ≡ Python walk
# ----------------------------------------------------------------------
def _assert_same_super_tree(tree):
    """Both tiers give ``tree`` the same super tree: scalars, parent,
    every member array in order, and each item's super node."""
    scalars, parent, members, node_of = _chain_bfs(tree)
    got = native.super_tree(tree.parent, tree.scalars)
    assert np.array_equal(scalars, got[0])
    assert np.array_equal(parent, got[1])
    assert len(members) == len(got[2])
    assert all(np.array_equal(a, b) for a, b in zip(members, got[2]))
    assert np.array_equal(node_of, got[3])


@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on this host")
class TestSuperTree:
    @settings(max_examples=40, deadline=None)
    @given(scalar_fields())
    def test_vertex_trees(self, field):
        _assert_same_super_tree(build_vertex_tree(ScalarGraph(*field)))

    @settings(max_examples=25, deadline=None)
    @given(scalar_fields())
    def test_edge_trees(self, field):
        graph, __ = field
        rng = np.random.default_rng(graph.n_edges % 97)
        edge_scalars = rng.integers(0, 4, graph.n_edges).astype(np.float64)
        eg = EdgeScalarGraph(graph, edge_scalars)
        _assert_same_super_tree(build_edge_tree(eg))

    @settings(max_examples=80, deadline=None)
    @given(forests())
    @example(([], []))
    def test_forests(self, forest):
        _assert_same_super_tree(ScalarTree(*forest))


def test_super_tree_self_test_answer_is_the_python_walk():
    scalars, parent, members, __ = _chain_bfs(
        ScalarTree(*native._SUPER_TREE_CASE)
    )
    assert (
        scalars.tolist(), parent.tolist(), [m.tolist() for m in members]
    ) == native._SUPER_TREE_ANSWER


@pytest.mark.parametrize("parent, scalars", [
    ([-1, 0, 3], [0.0, 1.0, 2.0]),   # parent id 3 past the 3 items
    ([-1, 0, 1], [0.0, 1.0]),        # one scalar short
], ids=["parent-past-end", "scalar-short"])
def test_super_tree_rejects_bad_input_before_the_call(parent, scalars):
    """The C walk trusts its parent ids, so the wrapper checks them."""

    class _NoKernel:
        def repro_super_tree(self, *args):
            raise AssertionError("the kernel was called")

    with pytest.raises(ValueError, match="super_tree"):
        native.super_tree(parent, scalars, lib=_NoKernel())


# ----------------------------------------------------------------------
# Streaming replay kernel
# ----------------------------------------------------------------------
@pytest.mark.skipif(not HAVE_CC, reason="no C compiler on this host")
class TestStreamReplay:
    def _streams(self, seed=0):
        from repro.stream.incremental import StreamingScalarTree

        sg = _field(n=800, m=2600, seed=seed)
        with accel.using("vector"):
            py = StreamingScalarTree(sg)
        with accel.using("native"):
            nat = StreamingScalarTree(sg)
        return py, nat

    def test_rebuild_state_matches_python(self):
        py, nat = self._streams()
        assert np.array_equal(py.tree.parent, nat.tree.parent)
        assert py._checkpoints == nat._checkpoints
        assert len(py._journal) == len(nat._journal)
        assert py._uf.n_sets == nat._uf.n_sets
        assert py._uf.snapshot() == nat._uf.snapshot()
        # The maintained invariant: tree_root[find(x)] is x's current
        # subtree root — identical trees even if the union-find's
        # internal forests differ.
        for x in range(0, nat.n_vertices, 97):
            assert (
                nat._tree_root[nat._uf.find(x)]
                == py._tree_root[py._uf.find(x)]
            )

    def test_edits_after_native_rebuild_match_oracle(self):
        from repro.stream.editlog import AddEdge, RemoveEdge, SetScalar

        py, nat = self._streams(seed=5)
        rng = np.random.default_rng(42)
        for __ in range(6):
            edits = []
            for __ in range(12):
                u = int(rng.integers(0, nat.n_vertices))
                v = int(rng.integers(0, nat.n_vertices))
                kind = int(rng.integers(0, 3))
                if kind == 0:
                    edits.append(SetScalar(u, float(rng.integers(0, 12))))
                elif u != v and kind == 1:
                    edits.append(AddEdge(u, v))
                elif u != v:
                    edits.append(RemoveEdge(u, v))
            a = py.apply(edits)
            b = nat.apply(edits)
            assert np.array_equal(a.parent, b.parent)
            oracle = oracle_vertex_tree(nat.snapshot())
            assert np.array_equal(b.parent, oracle.parent)

    def test_incremental_path_survives_native_rebuild(self):
        """A small low-level edit after a native rebuild must take the
        incremental (rewind + suffix replay) path and stay correct —
        the reconstructed journal/checkpoints really are rewindable."""
        from repro.stream.editlog import SetScalar

        __, nat = self._streams(seed=9)
        low = int(np.argmin(nat.scalars))
        tree = nat.apply([SetScalar(low, float(nat.scalars.min()) + 0.25)])
        assert nat.stats["incremental"] == 1
        assert nat.stats["full_rebuilds"] == 0
        oracle = oracle_vertex_tree(nat.snapshot())
        assert np.array_equal(tree.parent, oracle.parent)


# ----------------------------------------------------------------------
# rank_order against stale reuse
# ----------------------------------------------------------------------
class TestRankMemo:
    """``rank_order`` keeps no state between calls: a rebuild after an
    in-place edit of the scalars sees the new values."""

    def test_in_place_swap_rebuilds_the_tree(self):
        """A swap keeps the dtype, both ends and the sum of the field,
        so a buffer-keyed memo guarded by those would replay the old
        order here."""
        sg = ScalarGraph(
            from_edges([(0, 1), (1, 2), (2, 3), (3, 4)]),
            [5.0, 1.0, 3.0, 2.0, 4.0],
        )
        assert build_vertex_tree(sg).parent.tolist() == [1, -1, 3, 1, 3]
        sg.scalars[[1, 3]] = sg.scalars[[3, 1]]
        assert build_vertex_tree(sg).parent.tolist() == [1, 3, 1, -1, 3]

    def test_memo_result_is_correct(self):
        scalars = np.array([3.0, 1.0, 3.0, 2.0])
        order, rank = accel_tree.rank_order(scalars)
        assert order.tolist() == [0, 2, 3, 1]
        assert rank.tolist() == [0, 3, 1, 2]

    def test_in_place_mutation_invalidates(self):
        """DeltaGraph mutates scalar buffers in place; the next call
        must rank the new values."""
        scalars = np.array([3.0, 1.0, 4.0, 2.0])
        accel_tree.rank_order(scalars)
        scalars[0] = 9.0
        order, rank = accel_tree.rank_order(scalars)
        assert order.tolist() == [0, 2, 3, 1]

    def test_distinct_buffers_do_not_alias(self):
        a = np.array([1.0, 2.0])
        oa, __ = accel_tree.rank_order(a)
        assert oa.tolist() == [1, 0]  # highest scalar first
        del a  # freed id() may be reused by the next allocation
        b = np.array([2.0, 1.0])
        ob, __ = accel_tree.rank_order(b)
        # A stale alias would replay a's order; b's own is the reverse.
        assert ob.tolist() == [0, 1]
