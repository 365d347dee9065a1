"""Seeded input files for the benchmark workloads.

Every input is generated here, with numpy only, from the run's seed, and
written as the plain-text files the program reads through its own
loaders (``read_edge_list``, ``iter_temporal_edges_sorted``).  None of
this code comes from the program, so a change to ``repro.graph`` can
never change the inputs it is measured on.  Generation time is excluded
from every metric.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import numpy as np

#: Bump when a generator changes, so cached inputs are regenerated.
INPUTS_VERSION = 3
WORKLOADS = ("terrain", "build", "serve", "evolve")


def _unique_pairs(pairs: np.ndarray, n: int) -> np.ndarray:
    """Canonical (u < v) pairs, self loops and duplicates dropped, in
    first-seen order (so the file order is seed-determined)."""
    u = np.minimum(pairs[:, 0], pairs[:, 1])
    v = np.maximum(pairs[:, 0], pairs[:, 1])
    keep = u != v
    keys = u[keep] * n + v[keep]
    _, first = np.unique(keys, return_index=True)
    keys = keys[np.sort(first)]
    return np.column_stack([keys // n, keys % n])


def _cliques(rng, start: int, sizes: List[int], n_background: int):
    """Planted cliques on fresh vertices from ``start``, each tied to the
    background by two random edges."""
    pairs = []
    v = start
    for size in sizes:
        members = np.arange(v, v + size)
        iu, ju = np.triu_indices(size, k=1)
        pairs.append(np.column_stack([members[iu], members[ju]]))
        anchors = rng.integers(0, n_background, size=2)
        inside = rng.choice(members, size=2)
        pairs.append(np.column_stack([anchors, inside]))
        v += size
    return pairs, v


def grqc_like(rng) -> np.ndarray:
    """GrQc-shaped graph (~1.6k vertices / ~4k edges): a sparse random
    background plus five disjoint planted cliques of 9-26 vertices (the
    sizes of the ``grqc`` stand-in dataset; only the wiring is random,
    so every seed costs about the same to draw)."""
    n_bg, m_bg = 1500, 3200
    bg = _unique_pairs(rng.integers(0, n_bg, size=(int(m_bg * 1.05), 2)), n_bg)
    bg = bg[:m_bg]
    extra, n = _cliques(rng, n_bg, [26, 20, 16, 12, 9], n_bg)
    return _unique_pairs(np.concatenate([bg] + extra), n)


def heavy_tailed(rng, n: int, m: int, n_cliques: int) -> np.ndarray:
    """Chung-Lu graph with power-law expected degrees (exponent ~2.3)
    plus ``n_cliques`` planted cliques of 8 to 30 vertices."""
    weights = (np.arange(n) + 1.0) ** (-1.0 / 1.3)
    weights /= weights.sum()
    ends = rng.choice(n, size=(int(m * 1.15), 2), p=weights)
    # Shuffle vertex ids so hubs are not the lowest ids.
    ends = rng.permutation(n)[ends]
    bg = _unique_pairs(ends, n)[:m]
    sizes = np.linspace(8, 30, n_cliques).astype(int).tolist()
    extra, total = _cliques(rng, n, sizes, n)
    return _unique_pairs(np.concatenate([bg] + extra), total)


def temporal_log(
    rng, n_core: int, core_degree: int, n_fringe: int, windows: int
) -> np.ndarray:
    """Tumbling-window interaction log, rows ``(u, v, ts)`` sorted by ts.

    Every window ``k`` (timestamps in ``(k, k + 1)``) holds the same
    stable core -- ``n_core`` vertices, each linked to ``core_degree``
    targets drawn with power-law weights -- plus a fringe: a fresh
    random matching over 90% of ``n_fringe`` other vertices.  Fringe
    vertices have degree 0 or 1 in every window, far below the core's,
    so a window's edits only touch the lowest levels of a degree field
    (the case incremental maintenance is for), and every seed replays
    about the same number of vertices per window.
    """
    n = n_core + n_fringe
    weights = (np.arange(n_core) + 1.0) ** (-1.0 / 1.3)
    src = np.repeat(np.arange(n_core), core_degree)
    dst = rng.choice(n_core, size=len(src), p=weights / weights.sum())
    relabel = rng.permutation(n)
    core = _unique_pairs(relabel[np.column_stack([src, dst])], n)
    matched = int(0.9 * n_fringe) // 2 * 2
    rows = []
    for k in range(windows):
        ends = n_core + rng.permutation(n_fringe)[:matched].reshape(-1, 2)
        edges = np.concatenate([core, _unique_pairs(relabel[ends], n)])
        ts = k + rng.uniform(0.001, 0.999, size=len(edges))
        order = np.argsort(ts, kind="stable")
        rows.append(np.column_stack([edges[order], ts[order]]))
    return np.concatenate(rows)


def write_edges(pairs: np.ndarray, path: Path) -> None:
    np.savetxt(path, pairs, fmt="%d", header="u v", comments="# ")


def write_temporal(rows: np.ndarray, path: Path) -> None:
    with open(path, "w") as handle:
        handle.write("# src dst ts\n")
        for u, v, ts in rows:
            handle.write(f"{int(u)} {int(v)} {ts:.6f}\n")


#: Input sizes per workload (documented in README.md).
SIZES: Dict[str, Dict[str, int]] = {
    "build": {"n": 12000, "m": 40000, "cliques": 12},
    "evolve": {
        "n_core": 3000, "core_degree": 8, "n_fringe": 1600, "windows": 8,
    },
}


def make_inputs(workload: str, seed: int, root: Path) -> Dict[str, object]:
    """Write the inputs of ``workload`` for ``seed`` under ``root`` (once
    per seed; later calls reuse the files) and return their manifest."""
    directory = root / f"{workload}-s{seed}-v{INPUTS_VERSION}"
    manifest_path = directory / "manifest.json"
    if manifest_path.exists():
        return json.loads(manifest_path.read_text())
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed % 2**32, WORKLOADS.index(workload)])
    files: Dict[str, str] = {}
    shape: Dict[str, object] = {"seed": seed}
    if workload in ("terrain", "serve"):
        names = ["g"] if workload == "terrain" else ["a", "b"]
        for name in names:
            pairs = grqc_like(rng)
            path = directory / f"{name}.txt"
            write_edges(pairs, path)
            files[name] = str(path)
            shape[name] = {"V": int(pairs.max()) + 1, "E": int(len(pairs))}
    elif workload == "build":
        size = SIZES["build"]
        pairs = heavy_tailed(rng, size["n"], size["m"], size["cliques"])
        path = directory / "g.txt"
        write_edges(pairs, path)
        files["g"] = str(path)
        shape["g"] = {"V": int(pairs.max()) + 1, "E": int(len(pairs))}
    else:
        rows = temporal_log(rng, **SIZES["evolve"])
        path = directory / "log.txt"
        write_temporal(rows, path)
        files["log"] = str(path)
        shape["log"] = dict(SIZES["evolve"], rows=int(len(rows)))
    manifest = {"files": files, "shape": shape}
    manifest_path.write_text(json.dumps(manifest))
    return manifest
