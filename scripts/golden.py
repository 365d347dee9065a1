#!/usr/bin/env python
"""Golden-output corpus: sha256 digests of the paper's outputs.

Four files under ``tests/golden/``:

- ``accel.json``: for each stand-in dataset in :data:`DATASETS` and
  each measure in :data:`MEASURES`, the default pipeline
  (``repro.engine.Pipeline``, a fresh memory-only cache) builds the
  scalar field, the scalar tree (Algorithm 1 or 3), the super tree
  (Algorithm 2), the nested-disc layout and the heightfield at
  :data:`RESOLUTION`; each is recorded as one sha256 digest.
- ``evolve.json``: for each planted dynamic-community log
  (:func:`~repro.graph.generators.dynamic_planted_partition`, seeds
  :data:`EVOLVE_SEEDS`) × stride in :data:`EVOLVE_STRIDES` × bins in
  :data:`EVOLVE_BINS`, every window frame's graph CSR, field, tree
  ``parent``, display-tree ``parent`` and members, edge count and new
  edge count, plus a digest of the peak tracker's event log.  The
  timelines in :data:`EVOLVE_DIFF_TIMELINES` also record, for every
  window >= 1, the digests of its ``DiffTiler.summary`` and of every
  diff-tile payload at the ``repro evolve`` defaults
  (:data:`EVOLVE_DIFF_RESOLUTION`, :data:`EVOLVE_DIFF_TILE_SIZE`).
- ``baselines.json``: the comparison drawings of the user study.
  ``openord_layout(g, seed=0)`` on each stand-in in
  :data:`BASELINE_DATASETS`, and ``spring_layout(g, iterations=20,
  seed=0)`` on those (its all-pairs branch) and on grqc (its sampled
  branch); plus the rows of ``run_task1``, ``run_task2`` and
  ``run_task3`` at the arguments of ``tests/study/test_harness.py``'s
  fixtures, which check them so that tier-1 runs the study once.
- ``serve.json``: the results of every ``repro serve`` job on
  :data:`SERVE_DATASET` × :data:`SERVE_MEASURES`, in a pyramid of
  :data:`SERVE_TILE_SIZE`-cell tiles and :data:`SERVE_LEVELS` levels
  (:func:`serve_jobs`): every tile payload at every level, the peaks,
  a hit at the highest summit and one off the terrain, the treemap and
  the profile.  ``tests/serve/test_golden_jobs.py`` also serves each
  job through a live server and checks that the reply carries it.

Float arrays are rounded to 1e-9 before hashing (study rows are stored
rounded the same way), and each file records the numpy version the
digests were taken with.

``tests/golden/test_golden.py`` recomputes every entry in tier-1, so a
change to code that every accel tier shares still shows up as a digest
mismatch.  A deliberate output change is recorded with::

    PYTHONPATH=src python scripts/golden.py --update

and its reason goes into CHANGES.md.  Without ``--update`` the script
compares and lists the entries that differ (exit 1 when any does).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.baselines import openord_layout, spring_layout
from repro.engine import Pipeline
from repro.evolve import (
    DiffTiler,
    PeakTracker,
    frames_from_rows,
    peaks_from_tree,
)
from repro.graph import datasets
from repro.graph.generators import dynamic_planted_partition
from repro.serve.lod import LODPyramid
from repro.serve.workers import hit, peaks, profile_svg, treemap_svg
from repro.study import run_task1, run_task2, run_task3

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
CORPUS = GOLDEN / "accel.json"
EVOLVE_CORPUS = GOLDEN / "evolve.json"
BASELINES_CORPUS = GOLDEN / "baselines.json"
SERVE_CORPUS = GOLDEN / "serve.json"
DATASETS = ("amazon", "ppi", "dblp")
MEASURES = ("kcore", "ktruss", "degree", "closeness", "harmonic", "betweenness")
RESOLUTION = 160
#: Digests derived from layout geometry (float trigonometry and square
#: roots), as opposed to the structural ones (fields, trees).
GEOMETRY = ("layout", "heightfield")
EVOLVE_SEEDS = (0, 1, 2, 3)
#: ``None`` is the default stride (the horizon: tumbling windows).
EVOLVE_STRIDES = (None, 0.5)
EVOLVE_BINS = (None, 3)
#: ``(seed, stride, bins)`` of every evolve entry.
EVOLVE_TIMELINES = [
    (seed, stride, bins)
    for seed in EVOLVE_SEEDS
    for stride in EVOLVE_STRIDES
    for bins in EVOLVE_BINS
]
#: The tracker's ``peaks_from_tree`` minimum peak size.
EVOLVE_MIN_SIZE = 3
#: Evolve entries that also digest each window's diff: one tumbling
#: and one sliding timeline.
EVOLVE_DIFF_TIMELINES = [(0, None, None), (0, 0.5, None)]
#: ``repro evolve``'s default diff resolution and tile size.
EVOLVE_DIFF_RESOLUTION = 128
EVOLVE_DIFF_TILE_SIZE = 64
#: Stand-ins whose OpenOrd and all-pairs spring layouts are recorded.
BASELINE_DATASETS = ("amazon", "dblp", "ppi")
#: grqc is above ``spring_layout``'s ``sample_threshold``, so its
#: repulsion is estimated from a vertex sample.
SPRING_DATASETS = BASELINE_DATASETS + ("grqc",)
SPRING_ITERATIONS = 20
#: ``run_task1``/``run_task2`` and ``run_task3`` keyword arguments of
#: the recorded study rows (``tests/study/test_harness.py``'s fixtures).
STUDY_TASK12 = {"names": ("grqc", "ppi"), "n_participants": 10, "seed": 0}
STUDY_TASK3 = {"n_participants": 10, "seed": 0, "betweenness_samples": 64}
SERVE_DATASET = "amazon"
#: A vertex field and an edge field: both tree kinds, both peak units.
SERVE_MEASURES = ("kcore", "ktruss")
SERVE_TILE_SIZE = 32
SERVE_LEVELS = 3
#: Layout coordinates far outside the terrain.
SERVE_OFF_TERRAIN = (999.0, 999.0)
#: Serve digests that no layout geometry enters; every other one (tile
#: heights, disc areas and centres, SVG coordinates) is geometry.
SERVE_STRUCTURE = ("peaks", "hit off")


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.asarray(arr)
        if arr.dtype.kind == "f":
            # + 0.0 folds -0.0 into 0.0 after rounding.
            arr = np.round(arr.astype(np.float64), 9) + 0.0
            data = arr.astype("<f8")
        else:
            data = arr.astype("<i8")
        h.update(str(arr.shape).encode())
        h.update(np.ascontiguousarray(data).tobytes())
    return h.hexdigest()


def _members_digest(members) -> str:
    return _digest(
        np.array([len(m) for m in members], dtype=np.int64),
        np.concatenate(members) if members else np.zeros(0, np.int64),
    )


def entry(dataset: str, measure: str) -> Dict[str, str]:
    """Digests of one dataset × measure through the default pipeline."""
    pipe = Pipeline.from_dataset(dataset, measure)
    tree = pipe.tree
    display = pipe.display_tree
    layout = pipe.layout()
    hf = pipe.heightfield(RESOLUTION)
    return {
        "field": _digest(pipe.field.scalars),
        "tree_parent": _digest(tree.parent),
        "super_parent": _digest(display.parent),
        "super_members": _members_digest(display.members),
        "layout": _digest(layout.cx, layout.cy, layout.r, layout.extent),
        "heightfield": _digest(hf.height, hf.node, hf.extent, hf.base),
    }


def evolve_key(seed: int, stride: Optional[float], bins: Optional[int]) -> str:
    return (
        f"planted-{seed}/stride-{'default' if stride is None else stride}"
        f"/bins-{'none' if bins is None else bins}"
    )


def evolve_entry(
    seed: int, stride: Optional[float], bins: Optional[int]
) -> dict:
    """Per-window digests and the tracker's event log of one timeline
    over a planted dynamic-community log, as ``repro evolve
    --synthetic`` runs it (measure ``degree``, horizon 1, the log's
    origin); for the timelines in :data:`EVOLVE_DIFF_TIMELINES`, also
    ``diffs``: :func:`diff_entry` of every window >= 1."""
    log = dynamic_planted_partition(seed=seed)
    tracker = PeakTracker()
    tiler = None
    if (seed, stride, bins) in EVOLVE_DIFF_TIMELINES:
        tiler = DiffTiler(
            resolution=EVOLVE_DIFF_RESOLUTION,
            tile_size=EVOLVE_DIFF_TILE_SIZE,
        )
    windows: List[Dict[str, object]] = []
    diffs: List[Dict[str, str]] = []
    for frame in frames_from_rows(
        log.rows, log.n_vertices, stride=stride, origin=log.origin,
        bins=bins,
    ):
        tracker.observe(
            frame.index,
            peaks_from_tree(
                frame.super, None, EVOLVE_MIN_SIZE, window=frame.index
            ),
        )
        windows.append({
            "graph": _digest(frame.graph.indptr, frame.graph.indices),
            "field": _digest(frame.scalars),
            "tree_parent": _digest(frame.tree.parent),
            "super_parent": _digest(frame.super.parent),
            "super_members": _members_digest(frame.super.members),
            "n_edges": int(frame.n_edges),
            "n_new_edges": int(frame.n_new_edges),
        })
        if tiler is not None:
            tiler.add_frame(frame)
            if frame.index > 0:
                diffs.append(diff_entry(tiler, frame.index))
    events = [e.describe() for e in tracker.events]
    out = {
        "windows": windows,
        "n_events": len(events),
        "events": hashlib.sha256(
            json.dumps(events, sort_keys=True).encode()
        ).hexdigest(),
    }
    if tiler is not None:
        out["diffs"] = diffs
    return out


def diff_entry(tiler: DiffTiler, window: int) -> Dict[str, str]:
    """Digests of one window's diff against the window before: its
    ``summary`` and each tile's payload, as ``/evolve/diff`` serves it
    (all geometry: the diff is a difference of rasterized layouts)."""
    out = {"summary": _json_digest(tiler.summary(window))}
    per = tiler.tiles_per_side
    for ty in range(per):
        for tx in range(per):
            payload = tiler.tile(window, tx, ty).to_bytes()
            out[f"tile {tx}/{ty}"] = hashlib.sha256(payload).hexdigest()
    return out


def baseline_entry(dataset: str) -> Dict[str, str]:
    """Layout digests of one stand-in: ``openord`` for the datasets in
    :data:`BASELINE_DATASETS`, ``spring`` for those in
    :data:`SPRING_DATASETS`."""
    graph = datasets.load(dataset).graph
    out = {}
    if dataset in BASELINE_DATASETS:
        out["openord"] = _digest(openord_layout(graph, seed=0))
    if dataset in SPRING_DATASETS:
        out["spring"] = _digest(
            spring_layout(graph, iterations=SPRING_ITERATIONS, seed=0)
        )
    return out


def study_rows(rows) -> List[dict]:
    """Study rows as JSON values, floats rounded to 1e-9."""
    return [
        {
            "task": r.task,
            "dataset": r.dataset,
            "method": r.method,
            "accuracy": float(np.round(r.accuracy, 9)) + 0.0,
            "mean_time": float(np.round(r.mean_time, 9)) + 0.0,
        }
        for r in rows
    ]


def serve_pyramid(measure: str) -> LODPyramid:
    """The pyramid ``repro serve --datasets amazon`` builds for
    ``measure`` at the corpus's tile size and depth, over a fresh
    memory-only cache."""
    return LODPyramid(
        Pipeline.from_dataset(SERVE_DATASET, measure),
        tile_size=SERVE_TILE_SIZE, levels=SERVE_LEVELS,
    )


def serve_jobs(pyramid: LODPyramid) -> Dict[str, tuple]:
    """``{name: (job, *args)}``: every tile at every level, the 3
    highest peaks, a hit at the display tree's highest node and one off
    the terrain, a 128-px treemap and a 160×64 profile.  A serve route
    answers with ``job(pyramid, *args)``."""
    jobs: Dict[str, tuple] = {}
    for level in range(pyramid.levels):
        per = pyramid.tiles_per_side(level)
        for ty in range(per):
            for tx in range(per):
                jobs[f"tile {level}/{tx}/{ty}"] = (
                    LODPyramid.tile_payload, level, tx, ty,
                )
    layout = pyramid.pipeline.layout()
    summit = int(np.argmax(pyramid.pipeline.display_tree.scalars))
    jobs["peaks"] = (peaks, 3)
    jobs["hit summit"] = (
        hit, float(layout.cx[summit]), float(layout.cy[summit]),
    )
    jobs["hit off"] = (hit, *SERVE_OFF_TERRAIN)
    jobs["treemap"] = (treemap_svg, 128)
    jobs["profile"] = (profile_svg, 160, 64)
    return jobs


def _json_digest(value) -> str:
    """sha256 of a JSON value, floats rounded to 1e-9."""
    def rounded(v):
        if isinstance(v, float):
            return float(np.round(v, 9)) + 0.0
        if isinstance(v, dict):
            return {k: rounded(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [rounded(x) for x in v]
        return v

    return hashlib.sha256(
        json.dumps(rounded(value), sort_keys=True).encode()
    ).hexdigest()


def serve_digests(name: str, result) -> Dict[str, str]:
    """Digests of one job result: a tile's payload bytes, an SVG's
    text, or JSON rows; the peaks' disc areas apart from the rest of
    their rows, because only the areas come from the layout."""
    if name == "peaks":
        return {
            "peaks": _json_digest(
                [{k: v for k, v in row.items() if k != "base_area"}
                 for row in result]
            ),
            "peaks base_area": _json_digest(
                [row["base_area"] for row in result]
            ),
        }
    if isinstance(result, tuple):  # (payload, etag)
        return {name: hashlib.sha256(result[0]).hexdigest()}
    if isinstance(result, str):
        return {name: hashlib.sha256(result.encode()).hexdigest()}
    return {name: _json_digest(result)}


def serve_results(measure: str) -> Dict[str, object]:
    """``{name: job result}`` of :func:`serve_jobs`, run in-process."""
    pyramid = serve_pyramid(measure)
    return {
        name: job(pyramid, *args)
        for name, (job, *args) in serve_jobs(pyramid).items()
    }


def serve_entry(results: Dict[str, object]) -> Dict[str, str]:
    """The digests of :func:`serve_results`."""
    out: Dict[str, str] = {}
    for name, result in results.items():
        out.update(serve_digests(name, result))
    return out


def compute() -> Dict[str, Dict[str, str]]:
    return {
        f"{d}/{m}": entry(d, m) for d in DATASETS for m in MEASURES
    }


def compute_evolve() -> Dict[str, dict]:
    return {evolve_key(*t): evolve_entry(*t) for t in EVOLVE_TIMELINES}


def compute_baselines() -> Dict[str, Dict[str, str]]:
    return {d: baseline_entry(d) for d in SPRING_DATASETS}


def compute_study() -> Dict[str, List[dict]]:
    return {
        "task1": study_rows(run_task1(**STUDY_TASK12)),
        "task2": study_rows(run_task2(**STUDY_TASK12)),
        "task3": study_rows(run_task3(**STUDY_TASK3)),
    }


def compute_serve() -> Dict[str, Dict[str, str]]:
    return {
        f"{SERVE_DATASET}/{m}": serve_entry(serve_results(m))
        for m in SERVE_MEASURES
    }


def load(path: Path = CORPUS) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['entries'])} entries to {path}")


def differing(entries: dict, recorded: dict) -> List[str]:
    """``key: name`` for every digest that differs (an evolve entry's
    names are ``window N``, ``diff N``, ``events`` and ``n_events``)."""
    bad = []
    for key in sorted(set(entries) | set(recorded)):
        got, want = _flat(entries.get(key, {})), _flat(recorded.get(key, {}))
        bad.extend(
            f"{key}: {name}"
            for name in sorted(set(got) | set(want))
            if got.get(name) != want.get(name)
        )
    return bad


def _flat(entry: dict) -> dict:
    out = {k: v for k, v in entry.items() if k not in ("windows", "diffs")}
    for i, window in enumerate(entry.get("windows", ())):
        out[f"window {i}"] = window
    for i, diff in enumerate(entry.get("diffs", ()), start=1):
        out[f"diff {i}"] = diff
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--update", action="store_true",
        help=f"rewrite {CORPUS.name}, {EVOLVE_CORPUS.name}, "
             f"{BASELINES_CORPUS.name} and {SERVE_CORPUS.name} from the "
             "current code",
    )
    args = parser.parse_args(argv)
    entries = compute()
    evolve = compute_evolve()
    baselines = compute_baselines()
    study = compute_study()
    serve = compute_serve()
    if args.update:
        _write(CORPUS, {
            "numpy": np.__version__,
            "resolution": RESOLUTION,
            "entries": entries,
        })
        _write(EVOLVE_CORPUS, {"numpy": np.__version__, "entries": evolve})
        _write(BASELINES_CORPUS, {
            "numpy": np.__version__,
            "entries": baselines,
            "study": study,
        })
        _write(SERVE_CORPUS, {
            "numpy": np.__version__,
            "tile_size": SERVE_TILE_SIZE,
            "levels": SERVE_LEVELS,
            "entries": serve,
        })
        return 0
    recorded = load(BASELINES_CORPUS)
    bad = differing(entries, load()["entries"])
    bad += differing(evolve, load(EVOLVE_CORPUS)["entries"])
    bad += differing(baselines, recorded["entries"])
    bad += differing({"study": study}, {"study": recorded["study"]})
    bad += differing(serve, load(SERVE_CORPUS)["entries"])
    for line in bad:
        print("differs:", line)
    total = len(entries) + len(evolve) + len(baselines) + 1 + len(serve)
    print(f"{total} entries, {len(bad)} digests differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
