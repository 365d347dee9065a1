"""Sensitivity check of the layer -> metric table.

Each case makes one public layer function 30% slower from outside the
program (``$PERFBENCH_SLOW``, installed by ``worker.py`` and
``serve_host.py``), reruns every workload on the same seeds as an
unmodified baseline, run next to it, and takes the median over seeds
of each paired change (pairing keeps the host's drift over minutes out
of the comparison).  A case passes when exactly its ``expect`` pairs of
(workload, end-to-end metric) get worse by more than the metric's
BENCHMARK.json bound, and every other pair stays within its bound.

Usage, from the repository root (the defaults make 5 seeds x 4
workloads x 3 variants = 60 runs of BENCHMARK.json's ``run_seconds``,
about 30 minutes)::

    python3 perfbench/sensitivity.py [--seeds 5] [--seconds S]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import common

ROOT = Path(__file__).resolve().parent.parent
SLOWDOWN = 0.3
CASES = {
    # The mesh renderer is ~98% of `repro terrain` and runs nowhere else.
    "render_mesh": (
        "repro.terrain.render:render_mesh",
        {("terrain", m) for m in ("wall_s", "op_ms", "op_tail_ms")},
    ),
    # Warm tile GETs are answered from the server's encoded-payload memo,
    # so tile_payload runs once per tile (cold, ~1 ms of a ~30 ms build):
    # no end-to-end metric should move past its bound.
    "tile_payload": ("repro.serve.lod:LODPyramid.tile_payload", set()),
}


def run_once(workload, seed, seconds, slow) -> dict:
    env = dict(os.environ)
    env.pop(common.SLOW_ENV, None)
    if slow:
        env[common.SLOW_ENV] = f"{slow}={SLOWDOWN}"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=str(ROOT), env=env, stdout=subprocess.PIPE, text=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} ({slow}) failed its checks")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    variants = {"base": None}
    variants.update({name: target for name, (target, _) in CASES.items()})

    samples = {}  # (variant, workload, metric) -> values
    for seed in range(1, args.seeds + 1):
        for workload in workloads:
            for variant, target in variants.items():
                values = run_once(workload, seed, seconds, target)
                print(f"seed {seed} {workload:8s} {variant:12s} "
                      + " ".join(f"{k}={v:.4g}" for k, v in values.items()),
                      flush=True)
                for name, value in values.items():
                    samples.setdefault((variant, workload, name), []).append(value)

    ok = True
    table = []
    for case, (target, expect) in CASES.items():
        print(f"\n{case}: {target} {SLOWDOWN:.0%} slower")
        for workload in workloads:
            for name, spec in metrics.items():
                change = common.median(
                    slow / base - 1.0 for base, slow in zip(
                        samples["base", workload, name],
                        samples[case, workload, name],
                    )
                )
                worse = change if spec["better"] == "lower" else -change
                past = worse > spec["bound"]
                predicted = (workload, name) in expect
                ok &= past == predicted
                table.append((case, workload, name, change, spec["bound"],
                              past, predicted))
                print(f"  {workload:8s} {name:12s} {change:+8.1%} "
                      f"bound {spec['bound']:.0%} "
                      f"{'PAST' if past else 'within':6s} "
                      f"{'ok' if past == predicted else 'UNEXPECTED'}")
    out = ROOT / ".bench_work" / "sensitivity.json"
    out.write_text(json.dumps(table, indent=1))
    print(f"\n{'PASS' if ok else 'FAIL'}: table written to {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
