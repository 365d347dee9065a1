"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload terrain --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones (a count a workload does not exercise
reads 0; the finer spans are in the report's ``layers``).  The last stdout line is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the full report (workload shape,
output digests, environment).  The exit code is 1 when an output check
failed, 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy

import common
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKER = HERE / "worker.py"
#: Worker starts per run, half before the workload and half after it,
#: so that the samples span the run; set-up time is their scaled median.
SETUP_SAMPLES = 10
RUN_LIMIT_S = 170.0
#: Per-layer times that sum the workloads' finer spans (kept in the
#: report's ``layers``), chosen so that every workload exercises every
#: one: none reads a constant 0.  Counts and ratios pass through as is.
LAYER_GROUPS = {
    "graph.read_s": ("graph.read_s", "graph.temporal_read_s"),
    "measures.field_s": (
        "measures.kcore_s", "measures.ktruss_s", "measures.degree_s",
    ),
    "core.tree_s": ("core.vertex_tree_s", "core.edge_tree_s", "stream.apply_s"),
    "core.super_tree_s": ("core.super_tree_s", "evolve.display_tree_s"),
    "terrain.layout_s": ("terrain.layout_s",),
    "terrain.sink_s": (
        "terrain.rasterize_s", "terrain.mesh_s", "terrain.render_s",
        "terrain.png_s", "terrain.peaks_s", "serve.downsample_s",
        "serve.tile_s", "evolve.peaks_s", "evolve.track_s", "evolve.diff_s",
    ),
}


def child_env() -> dict:
    """The program's environment: source tree on the path, native
    kernel cache and temp files inside the checkout, every repro
    option (tracing, faults, accel, cache dir, dist) at its default."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def start_worker(env) -> subprocess.Popen:
    """Start a worker and wait until it is ready."""
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)], env=env, cwd=str(ROOT),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise SystemExit(f"worker failed to start: {line!r}")
    return proc


def setup_samples(env, count: int) -> list:
    """Start ``count`` workers, one at a time, each told to exit once
    ready; return their start -> READY seconds, (scaled, unscaled).

    This process, and so every worker it starts, is pinned to one CPU
    meanwhile, and its speed probe samples that CPU while it waits for
    each start.  (Unpinned, a start ran ~40% slower whenever it was
    spread over both CPUs, and a probe on the other CPU did not follow
    it.)"""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    probe = common.SpeedProbe().start()
    samples = []
    try:
        for _ in range(count):
            mark = probe.mark()
            t0 = common.clock()
            proc = start_worker(env)
            elapsed = common.clock() - t0
            samples.append((elapsed / probe.factor(mark), elapsed))
            proc.communicate("EXIT\n", timeout=60)
    finally:
        probe.stop()
        os.sched_setaffinity(0, cpus)
    return samples


def run_workload(spec: dict, env) -> dict:
    """Set-up samples, half before the workload and half after it; the
    workload runs in a worker of its own, not pinned.  ``serve`` takes
    its set-up samples from server boots instead, and a traced run
    takes none."""
    sampled = spec["workload"] != "serve" and not spec["trace"]
    samples = setup_samples(env, SETUP_SAMPLES // 2) if sampled else []
    proc = start_worker(env)
    try:
        out, _ = proc.communicate(
            "GO\n" + json.dumps(spec) + "\n", timeout=RUN_LIMIT_S
        )
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"workload worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    if sampled:
        samples += setup_samples(env, SETUP_SAMPLES - len(samples))
        scaled, unscaled = zip(*samples)
        result["metrics"]["setup_s"] = common.median(scaled)
        result["report"]["unscaled"]["setup_s"] = common.median(unscaled)
        result["report"]["worker_start_s"] = samples
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    catalogue = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in catalogue}

    for sub in ("native", "tmp", "inputs"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    env = child_env()
    warm = subprocess.run(
        [sys.executable, str(WORKER), "--warmup"], env=env, cwd=str(ROOT),
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    if warm.returncode != 0:
        print("perfbench: the program failed to import", file=sys.stderr)
        return 2

    manifest = inputs.make_inputs(args.workload, args.seed, WORK / "inputs")
    out_dir = WORK / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "files": manifest["files"],
        "out_dir": str(out_dir),
        "tmp_dir": str(WORK / "tmp"),
    }
    result = run_workload(spec, env)

    measured = result["metrics"]
    if args.trace:
        result["report"]["layers"] = measured
        measured = dict(measured, **{
            name: sum(measured.get(span, 0.0) for span in spans)
            for name, spans in LAYER_GROUPS.items()
        })
    elif set(measured) != set(units):
        raise SystemExit(
            f"metrics {sorted(measured)} out of step with BENCHMARK.json"
        )
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    report = dict(
        result["report"],
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        shape=dict(manifest["shape"], **result["report"].get("shape", {})),
        failures=result["failures"],
        host={
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    )
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{out_dir.name}.json").write_text(
        json.dumps(dict(final, report=report), indent=1, sort_keys=True)
    )
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
