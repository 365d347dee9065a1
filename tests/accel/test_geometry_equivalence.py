"""Sibling relaxation and whole layouts.

The relaxation is one accumulate-then-apply loop
(:func:`repro.accel.geometry.relax_siblings`); it must separate
overlapping siblings and keep them inside their parent.  Whole layouts
must come out byte-identical whichever accel tier built the tree they
lay out.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import accel
from repro.accel.geometry import relax_siblings
from repro.core import ScalarGraph, build_super_tree, build_vertex_tree
from repro.terrain import layout_tree

from accel_strategies import scalar_fields


@st.composite
def sibling_sets(draw):
    k = draw(st.integers(min_value=1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    # Mix of spread-out and piled-up configurations; occasionally force
    # coincident centres to hit the degenerate separation branch.
    spread = draw(st.sampled_from([0.05, 0.3, 0.8]))
    xs = rng.uniform(-spread, spread, k)
    ys = rng.uniform(-spread, spread, k)
    if k > 1 and draw(st.booleans()):
        xs[1] = xs[0]
        ys[1] = ys[0]
    radii = rng.uniform(0.01, 0.15, k)
    iters = draw(st.integers(min_value=1, max_value=12))
    return xs, ys, radii, iters


@settings(max_examples=20, deadline=None)
@given(sibling_sets())
def test_relax_resolves_overlap_and_containment(case):
    """After enough sweeps, siblings barely overlap and stay inside the
    parent."""
    xs, ys, radii, __ = case
    vx, vy = relax_siblings(xs, ys, radii, 0.0, 0.0, 1.0, 60)
    k = len(vx)
    for i in range(k):
        assert np.sqrt(vx[i] ** 2 + vy[i] ** 2) <= (1.0 - radii[i]) * 1.0001
    if k <= 12 and float(np.sqrt((radii ** 2).sum())) < 0.55:
        for i in range(k):
            for j in range(i + 1, k):
                d = float(np.hypot(vx[i] - vx[j], vy[i] - vy[j]))
                assert d >= (radii[i] + radii[j]) * 0.8


@settings(max_examples=30, deadline=None)
@given(scalar_fields())
def test_layout_tree_identical_across_backends(field):
    graph, scalars = field
    layouts = []
    for tier in ("vector", "native"):
        with accel.using(tier):
            tree = build_super_tree(
                build_vertex_tree(ScalarGraph(graph, scalars))
            )
            layouts.append(layout_tree(tree))
    a, b = layouts
    assert np.array_equal(a.cx, b.cx)
    assert np.array_equal(a.cy, b.cy)
    assert np.array_equal(a.r, b.r)
    assert a.extent == b.extent
