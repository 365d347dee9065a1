"""``build``: the ``repro peaks`` command on a large graph.

One pass builds a cold ``Pipeline`` from the edge-list file through the
display (super) tree, the layout and the three highest peaks, for
``kcore`` and ``ktruss``: the paper's construction time ``tc`` with no
rendering.  The traced pass times each stage accessor separately; its
peaks and super-node counts must equal the untraced pass's.
"""

from __future__ import annotations

from repro.engine import Pipeline

import common
from common import clock, median

MEASURES = ("kcore", "ktruss")


def _summary(p: Pipeline, peaks) -> tuple:
    return (
        int(p.display_tree.n_nodes),
        tuple((round(float(k.alpha), 9), int(k.size), round(float(k.summit), 9))
              for k in peaks),
    )


def untraced_pass(path: str):
    times, out = [], {}
    for measure in MEASURES:
        t0 = clock()
        p = Pipeline.from_edge_list(path, measure)
        p.display_tree
        p.layout()
        peaks = p.peaks(count=3)
        times.append(clock() - t0)
        out[measure] = _summary(p, peaks)
    return times, out


def traced_pass(path: str, rec: common.Recorder):
    out = {}
    t0 = clock()
    for measure in MEASURES:
        p = Pipeline.from_edge_list(path, measure)
        with rec.span("graph.read_s"):
            p.graph
        with rec.span(f"measures.{measure}_s"):
            p.field
        with rec.span(f"core.{p.kind}_tree_s"):
            p.tree
        with rec.span("core.super_tree_s"):
            p.display_tree
        with rec.span("terrain.layout_s"):
            p.layout()
        with rec.span("terrain.peaks_s"):
            peaks = p.peaks(count=3)
        out[measure] = _summary(p, peaks)
        out[measure + ".cache"] = dict(p.cache.stats)
    return clock() - t0, out


def run(spec, probe: common.SpeedProbe) -> dict:
    path = spec["files"]["g"]
    rec = common.Recorder()
    warm, plain, traced, factors = common.run_passes(
        spec, lambda: untraced_pass(path), lambda: traced_pass(path, rec),
        probe,
    )
    checks = common.Checks()
    reference = warm[1]
    for _, out in [warm] + plain:
        for measure in MEASURES:
            n_nodes, peaks = out[measure]
            checks.expect(n_nodes > 0 and len(peaks) > 0,
                          f"{measure}: empty display tree or no peaks")
            checks.expect(out[measure] == reference[measure],
                          f"{measure} peaks changed between passes")
    for _, out in traced:
        for measure in MEASURES:
            checks.expect(out[measure] == reference[measure],
                          f"traced {measure} peaks/super nodes differ")

    def metrics(scaled: bool) -> dict:
        passes = [[t / f for t in times] if scaled else times
                  for (times, _), f in zip(plain, factors)]
        return common.op_metrics(
            sum(median(times) for times in zip(*passes)),
            [sum(times) for times in passes],
        )

    report = {
        "passes": len(plain),
        "super_nodes": {m: reference[m][0] for m in MEASURES},
        "peaks_sha256_16": common.digest(reference),
    }
    if not spec["trace"]:
        report["unscaled"] = metrics(False)
        return checks.result(metrics(True), report)
    build_s = metrics(False)["wall_s"]

    traced_walls = [wall for wall, _ in traced]
    cache = [traced[0][1][m + ".cache"] for m in MEASURES]
    layers = {name: total / len(traced) for name, total in rec.totals.items()}
    layers["core.super_nodes"] = sum(reference[m][0] for m in MEASURES)
    layers["engine.cache_hits"] = sum(c["hits"] for c in cache)
    layers["engine.cache_misses"] = sum(c["misses"] for c in cache)
    layers["remainder_frac"] = 1.0 - rec.top_s / sum(traced_walls)
    layers["trace_overhead_frac"] = median(traced_walls) / build_s - 1.0
    return checks.result(layers, report)
