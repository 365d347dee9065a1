"""Property: every window frame ≡ a from-scratch build of that window.

The timeline maintains one :class:`StreamingScalarTree` across windows
(batch expiry + batch arrival per frame); the acceptance contract is
that each emitted frame's vertex tree and display tree are
node-identical to running Algorithm 1 + the super-tree pass from
scratch on the window's own edge set — for ANY timestamped edge
sequence, and under every accel tier.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel
from repro.accel import native as accel_native
from repro.core import ScalarGraph, build_super_tree, build_vertex_tree
from repro.engine import registry
from repro.evolve import frames_from_rows
from repro.graph.builders import from_edge_array
from repro.graph.generators import dynamic_planted_partition

BACKENDS = ["vector"] + (["native"] if accel_native.available() else [])


@st.composite
def _temporal_rows(draw):
    n = draw(st.integers(min_value=4, max_value=24))
    k = draw(st.integers(min_value=1, max_value=60))
    vertex = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=k, max_size=k))
    # Timestamps over ~4 window lengths, many exact duplicates.
    ts = draw(st.lists(
        st.integers(min_value=0, max_value=16).map(lambda t: t / 4.0),
        min_size=k, max_size=k,
    ))
    rows = np.array(
        [[u, v, t, 1.0] for (u, v), t in zip(pairs, ts)], dtype=np.float64
    ).reshape(-1, 4)
    rows = rows[np.argsort(rows[:, 2], kind="stable")]
    horizon = draw(st.sampled_from([0.5, 1.0, 2.0]))
    return n, rows, horizon


def _window_edges(rows, t_start, t_end, first=False):
    # Frames cover (t_start, t_end]; frame 0 also keeps rows stamped
    # exactly at the origin instead of dropping them.
    ts = rows[:, 2]
    lo = (ts >= t_start) if first else (ts > t_start)
    live = rows[lo & (ts <= t_end)][:, :2].astype(np.int64)
    u = np.minimum(live[:, 0], live[:, 1])
    v = np.maximum(live[:, 0], live[:, 1])
    keep = u != v
    return np.unique(np.column_stack([u[keep], v[keep]]), axis=0)


def _assert_frames_match_scratch(n, rows, horizon):
    frames = frames_from_rows(
        rows, n, measure="degree", horizon=horizon, origin=0.0,
    )
    count = 0
    for frame in frames:
        count += 1
        edges = _window_edges(
            rows, frame.t_start, frame.t_end, first=frame.index == 0
        )
        graph = from_edge_array(edges.reshape(-1, 2), n_vertices=n)
        scalars = registry.compute("degree", graph)
        assert np.array_equal(frame.scalars, scalars)
        ref = build_vertex_tree(ScalarGraph(graph, scalars))
        assert np.array_equal(frame.tree.parent, ref.parent)
        assert np.array_equal(frame.tree.scalars, ref.scalars)
        sup = build_super_tree(ref)
        assert np.array_equal(frame.super.parent, sup.parent)
        assert np.array_equal(frame.super.scalars, sup.scalars)
        assert all(
            np.array_equal(a, b)
            for a, b in zip(frame.super.members, sup.members)
        )
    assert count >= 1


@settings(max_examples=40, deadline=None)
@given(_temporal_rows())
def test_windowed_maintenance_matches_scratch_builds(scenario):
    n, rows, horizon = scenario
    _assert_frames_match_scratch(n, rows, horizon)


@pytest.mark.parametrize("backend", BACKENDS)
def test_backends_agree_on_planted_log(backend):
    """Tier-1 acceptance: per-window frames are node-identical to
    independent full builds under every available accel backend."""
    log = dynamic_planted_partition(n_windows=5, seed=4)
    with accel.using(backend):
        _assert_frames_match_scratch(log.n_vertices, log.rows, 1.0)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_backends_build_identical_frames(seed):
    """The same temporal log yields byte-identical trees per backend."""
    rng = np.random.default_rng(seed)
    n = 12
    k = 30
    rows = np.column_stack([
        rng.integers(0, n, k), rng.integers(0, n, k),
        np.sort(rng.uniform(0.0, 3.0, k)), np.ones(k),
    ]).astype(np.float64)
    reference = None
    for backend in BACKENDS:
        with accel.using(backend):
            got = [
                (f.tree.parent.copy(), f.super.parent.copy())
                for f in frames_from_rows(rows, n, horizon=1.0, origin=0.0)
            ]
        if reference is None:
            reference = got
        else:
            assert len(got) == len(reference)
            for (tp, sp), (rtp, rsp) in zip(got, reference):
                assert np.array_equal(tp, rtp)
                assert np.array_equal(sp, rsp)
