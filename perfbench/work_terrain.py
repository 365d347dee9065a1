"""``terrain``: the ``repro terrain`` command at its CLI defaults.

One pass renders a cold ``Pipeline`` (edge-list file -> PNG at 640x480,
heightfield resolution 160, the CLI's default camera) for ``kcore``
(vertex field, Algorithm 1) and ``ktruss`` (edge field, Algorithm 3).
The traced pass makes the same calls stage by stage and assembles the
PNG from ``build_mesh``/``render_mesh``/``save_png`` with the arguments
``render_terrain`` passes, so it must be byte-identical to the
untraced PNG.
"""

from __future__ import annotations

import struct
from pathlib import Path

from repro.engine import Pipeline
from repro.terrain import colormap, mesh as mesh_mod, render as render_mod
from repro.terrain.camera import Camera

import common
from common import clock, median

MEASURES = ("kcore", "ktruss")
WIDTH, HEIGHT, RESOLUTION, Z_SCALE = 640, 480, 160, 0.55


def _camera() -> Camera:
    # What `repro terrain` builds from its default flags.
    return Camera(azimuth=35.0, elevation=38.0).zoomed(1.0)


def _png_size(blob: bytes):
    return struct.unpack(">II", blob[16:24])


def untraced_pass(path: str, out: Path):
    times, pngs = [], {}
    for measure in MEASURES:
        png = out / f"{measure}.png"
        t0 = clock()
        Pipeline.from_edge_list(path, measure).render(
            path=png, camera=_camera(), resolution=RESOLUTION,
            width=WIDTH, height=HEIGHT,
        )
        times.append(clock() - t0)
        pngs[measure] = png.read_bytes()
    return times, pngs


def traced_pass(path: str, out: Path, rec: common.Recorder):
    pngs, shape = {}, {}
    t0 = clock()
    for measure in MEASURES:
        png = out / f"{measure}.traced.png"
        p = Pipeline.from_edge_list(path, measure)
        with rec.span("graph.read_s"):
            p.graph
        with rec.span(f"measures.{measure}_s"):
            p.field
        with rec.span(f"core.{p.kind}_tree_s"):
            p.tree
        with rec.span("core.super_tree_s"):
            tree = p.display_tree
        with rec.span("terrain.layout_s"):
            p.layout()
        with rec.span("terrain.rasterize_s"):
            hf = p.heightfield(RESOLUTION)
        with rec.span("terrain.mesh_s"):
            mesh = mesh_mod.build_mesh(
                hf, colormap.intensity_ramp(tree.scalars), z_scale=Z_SCALE
            )
        with rec.span("terrain.render_s"):
            image = render_mod.render_mesh(
                mesh, camera=_camera(), width=WIDTH, height=HEIGHT
            )
        with rec.span("terrain.png_s"):
            render_mod.save_png(image, png)
        pngs[measure] = png.read_bytes()
        shape[measure] = {
            "super_nodes": int(tree.n_nodes),
            "faces": int(len(mesh.faces)),
            "cache": dict(p.cache.stats),
        }
    return clock() - t0, pngs, shape


def run(spec, probe: common.SpeedProbe) -> dict:
    path = spec["files"]["g"]
    out = Path(spec["out_dir"])
    rec = common.Recorder()
    warm, plain, traced, factors = common.run_passes(
        spec,
        lambda: untraced_pass(path, out),
        lambda: traced_pass(path, out, rec),
        probe,
    )
    checks = common.Checks()
    reference = warm[1]
    for _, pngs in [warm] + plain:
        for measure, blob in pngs.items():
            checks.expect(_png_size(blob) == (WIDTH, HEIGHT),
                          f"{measure} PNG is not {WIDTH}x{HEIGHT}")
            checks.expect(blob == reference[measure],
                          f"{measure} PNG changed between passes")
    for _, pngs, _ in traced:
        for measure, blob in pngs.items():
            checks.expect(blob == reference[measure],
                          f"traced {measure} PNG differs from untraced")

    def metrics(scaled: bool) -> dict:
        per_measure = list(zip(*(
            [t / f for t in times] if scaled else times
            for (times, _), f in zip(plain, factors)
        )))
        images = [t for times in per_measure for t in times]
        return common.op_metrics(
            sum(median(times) for times in per_measure), images
        )

    report = {
        "passes": len(plain),
        "png_sha256_16": {m: common.digest(b) for m, b in reference.items()},
    }
    if not spec["trace"]:
        report["unscaled"] = metrics(False)
        return checks.result(metrics(True), report)
    terrain_s = metrics(False)["wall_s"]

    shape = traced[0][2]
    walls = [wall for wall, _, _ in traced]
    layers = {name: total / len(traced) for name, total in rec.totals.items()}
    faces = sum(s["faces"] for s in shape.values())
    layers["terrain.faces"] = faces / len(MEASURES)
    layers["terrain.render_us_per_face"] = (
        1e6 * layers["terrain.render_s"] / faces
    )
    layers["terrain.render_frac"] = (
        layers["terrain.render_s"] * len(walls) / sum(walls)
    )
    layers["core.super_nodes"] = sum(s["super_nodes"] for s in shape.values())
    layers["engine.cache_hits"] = sum(s["cache"]["hits"] for s in shape.values())
    layers["engine.cache_misses"] = sum(
        s["cache"]["misses"] for s in shape.values()
    )
    layers["remainder_frac"] = 1.0 - rec.top_s / sum(walls)
    layers["trace_overhead_frac"] = median(walls) / terrain_s - 1.0
    report["shape"] = shape
    return checks.result(layers, report)
