"""Sibling relaxation for the nested-disc layout.

The layout's overlap-relaxation step pushes overlapping sibling discs
apart and clamps every disc back inside its parent, as an
accumulate-then-apply sweep (a Jacobi iteration): all pairwise pushes
of a sweep are computed against the sweep's starting positions, summed
per disc in ascending partner order, applied at once, and then the
parent clamp runs per disc on the pushed positions.

:func:`relax_siblings` runs the sweep as a nested Python loop, O(k²)
pairs per sweep.  The layout only relaxes groups of 2–24 siblings
(larger groups are ring-packed), and on those the loop matches or
beats a k×k numpy broadcast of the same sweep, which pays its array
set-up on every one of the many small groups.

Overlapping pairs at effectively zero distance separate along +x, with
a ``d = 1`` substitution in the push magnitude.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["relax_siblings"]

_PAD = 1.02  # target separation: sum of radii plus a 2% breathing gap
_EPS = 1e-12


def relax_siblings(
    xs: np.ndarray,
    ys: np.ndarray,
    radii: np.ndarray,
    cx: float,
    cy: float,
    available: float,
    iters: int,
) -> "tuple[np.ndarray, np.ndarray]":
    """Accumulate-then-apply relaxation (returns new arrays)."""
    xs = np.array(xs, dtype=np.float64)
    ys = np.array(ys, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    k = len(xs)
    for __ in range(iters):
        moved = False
        xl = xs.tolist()
        yl = ys.tolist()
        rl = radii.tolist()
        push_x = [0.0] * k
        push_y = [0.0] * k
        for i in range(k):
            xi = xl[i]
            yi = yl[i]
            ri = rl[i]
            for j in range(i + 1, k):
                dx = xl[j] - xi
                dy = yl[j] - yi
                d = math.sqrt(dx * dx + dy * dy)
                need = (ri + rl[j]) * _PAD
                if d < need:
                    if d < _EPS:
                        dx, dy, d = 1.0, 0.0, 1.0
                    push = (need - d) / 2
                    ux = dx / d
                    uy = dy / d
                    push_x[i] -= ux * push
                    push_y[i] -= uy * push
                    push_x[j] += ux * push
                    push_y[j] += uy * push
                    moved = True
        xs = xs + np.array(push_x)
        ys = ys + np.array(push_y)
        for i in range(k):
            dx = float(xs[i]) - cx
            dy = float(ys[i]) - cy
            d = math.sqrt(dx * dx + dy * dy)
            limit = available - float(radii[i])
            if d > limit:
                if d < _EPS:
                    xs[i] = cx
                    ys[i] = cy
                else:
                    scale = limit / d
                    xs[i] = cx + dx * scale
                    ys[i] = cy + dy * scale
                moved = True
        if not moved:
            break
    return xs, ys
