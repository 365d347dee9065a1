"""Run ``repro serve`` through the program's CLI entry point
(``repro.cli.main``) with the benchmark's hooks installed in the server
process.

* ``$PERFBENCH_SLOW``: slowdowns, see :func:`common.apply_slowdowns`.
* ``$PERFBENCH_LAYERS_OUT``: time the public functions a cold pyramid
  build calls and, when the server exits, write every span
  ``(name, start, seconds, depth)`` to that path as JSON.  Span starts
  are ``time.perf_counter()`` readings, which share one system-wide
  monotonic clock with the client's.

Usage: ``python3 perfbench/serve_host.py serve --port 0 ...`` (any
``repro`` arguments).
"""

from __future__ import annotations

import json
import os
import sys

import common


def install(rec: common.Recorder) -> None:
    from repro.engine import pipeline, registry
    from repro.serve.lod import LODPyramid
    from repro.terrain.heightfield import Heightfield

    rec.wrap(LODPyramid, "ensure_levels", "serve.pyramid_s")
    rec.wrap(LODPyramid, "tile_payload", "serve.tile_s")
    rec.wrap(pipeline, "read_edge_list", "graph.read_s")
    rec.wrap(registry, "compute", lambda name, *a, **k: f"measures.{name}_s")
    rec.wrap(pipeline, "build_vertex_tree", "core.vertex_tree_s")
    rec.wrap(pipeline, "build_edge_tree", "core.edge_tree_s")
    rec.wrap(pipeline, "build_super_tree", "core.super_tree_s")
    rec.wrap(pipeline, "layout_tree", "terrain.layout_s")
    rec.wrap(pipeline, "rasterize", "terrain.rasterize_s")
    rec.wrap(Heightfield, "downsample", "serve.downsample_s")


def main(argv) -> int:
    from repro import cli

    common.apply_slowdowns()
    out = os.environ.get("PERFBENCH_LAYERS_OUT")
    rec = common.Recorder()
    if out:
        install(rec)
    try:
        return cli.main(argv)
    finally:
        if out:
            with open(out, "w") as handle:
                json.dump(rec.events, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
