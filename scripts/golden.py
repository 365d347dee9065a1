#!/usr/bin/env python
"""Golden-output corpus: sha256 digests of the paper's outputs.

Two files under ``tests/golden/``:

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
  edge count, plus a digest of the peak tracker's event log.

Float arrays are rounded to 1e-9 before hashing, and each file records
the numpy version the digests were taken with.

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

from repro.engine import Pipeline
from repro.evolve import PeakTracker, frames_from_rows, peaks_from_tree
from repro.graph.generators import dynamic_planted_partition

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
CORPUS = GOLDEN / "accel.json"
EVOLVE_CORPUS = GOLDEN / "evolve.json"
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
    origin)."""
    log = dynamic_planted_partition(seed=seed)
    tracker = PeakTracker()
    windows: List[Dict[str, object]] = []
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
    events = [e.describe() for e in tracker.events]
    return {
        "windows": windows,
        "n_events": len(events),
        "events": hashlib.sha256(
            json.dumps(events, sort_keys=True).encode()
        ).hexdigest(),
    }


def compute() -> Dict[str, Dict[str, str]]:
    return {
        f"{d}/{m}": entry(d, m) for d in DATASETS for m in MEASURES
    }


def compute_evolve() -> Dict[str, dict]:
    return {evolve_key(*t): evolve_entry(*t) for t in EVOLVE_TIMELINES}


def load(path: Path = CORPUS) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['entries'])} entries to {path}")


def differing(entries: dict, recorded: dict) -> List[str]:
    """``key: name`` for every digest that differs (an evolve entry's
    names are ``window N``, ``events`` and ``n_events``)."""
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
    out = {k: v for k, v in entry.items() if k != "windows"}
    for i, window in enumerate(entry.get("windows", ())):
        out[f"window {i}"] = window
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--update", action="store_true",
        help=f"rewrite {CORPUS.name} and {EVOLVE_CORPUS.name} from the "
             "current code",
    )
    args = parser.parse_args(argv)
    entries = compute()
    evolve = compute_evolve()
    if args.update:
        _write(CORPUS, {
            "numpy": np.__version__,
            "resolution": RESOLUTION,
            "entries": entries,
        })
        _write(EVOLVE_CORPUS, {"numpy": np.__version__, "entries": evolve})
        return 0
    bad = differing(entries, load()["entries"])
    bad += differing(evolve, load(EVOLVE_CORPUS)["entries"])
    for line in bad:
        print("differs:", line)
    print(f"{len(entries) + len(evolve)} entries, {len(bad)} digests differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
