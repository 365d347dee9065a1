#!/usr/bin/env python
"""Golden-output corpus: sha256 digests of the paper's outputs.

For each stand-in dataset in :data:`DATASETS` and each measure in
:data:`MEASURES`, the default pipeline (``repro.engine.Pipeline``, a
fresh memory-only cache) builds the scalar field, the scalar tree
(Algorithm 1 or 3), the super tree (Algorithm 2), the nested-disc
layout and the heightfield at :data:`RESOLUTION`; each is recorded as
one sha256 digest.  Float arrays are rounded to 1e-9 before hashing,
and the file records the numpy version the digests were taken with.

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
from typing import Dict

import numpy as np

from repro.engine import Pipeline

CORPUS = Path(__file__).resolve().parent.parent / "tests" / "golden" / "accel.json"
DATASETS = ("amazon", "ppi", "dblp")
MEASURES = ("kcore", "ktruss", "degree", "closeness", "harmonic", "betweenness")
RESOLUTION = 160
#: Digests derived from layout geometry (float trigonometry and square
#: roots), as opposed to the structural ones (fields, trees).
GEOMETRY = ("layout", "heightfield")


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


def entry(dataset: str, measure: str) -> Dict[str, str]:
    """Digests of one dataset × measure through the default pipeline."""
    pipe = Pipeline.from_dataset(dataset, measure)
    tree = pipe.tree
    display = pipe.display_tree
    layout = pipe.layout()
    hf = pipe.heightfield(RESOLUTION)
    members = display.members
    return {
        "field": _digest(pipe.field.scalars),
        "tree_parent": _digest(tree.parent),
        "super_parent": _digest(display.parent),
        "super_members": _digest(
            np.array([len(m) for m in members], dtype=np.int64),
            np.concatenate(members) if members else np.zeros(0, np.int64),
        ),
        "layout": _digest(layout.cx, layout.cy, layout.r, layout.extent),
        "heightfield": _digest(hf.height, hf.node, hf.extent, hf.base),
    }


def compute() -> Dict[str, Dict[str, str]]:
    return {
        f"{d}/{m}": entry(d, m) for d in DATASETS for m in MEASURES
    }


def load() -> dict:
    with open(CORPUS) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--update", action="store_true",
        help=f"rewrite {CORPUS.name} from the current code",
    )
    args = parser.parse_args(argv)
    entries = compute()
    if args.update:
        CORPUS.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "numpy": np.__version__,
            "resolution": RESOLUTION,
            "entries": entries,
        }
        CORPUS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(entries)} entries to {CORPUS}")
        return 0
    recorded = load()["entries"]
    bad = [
        f"{key}: {name}"
        for key in sorted(set(entries) | set(recorded))
        for name in sorted(set(entries.get(key, {})) | set(recorded.get(key, {})))
        if entries.get(key, {}).get(name) != recorded.get(key, {}).get(name)
    ]
    for line in bad:
        print("differs:", line)
    print(f"{len(entries)} entries, {len(bad)} digests differ")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
