"""Benchmark worker process: import the program, report ready, run one
workload.

``run.py`` starts this script several times per run.  Each start is a
set-up sample: the time from process start until the ``READY`` line,
which covers interpreter start-up, importing the program's CLI and
loading the native kernel tier from its compiled cache.  A worker told
``EXIT`` stops there; the one told ``GO`` reads a JSON spec on the next
stdin line, runs that workload in this process (with the host speed
probe of ``common`` running, unless traced) and prints its result as
one JSON line.

``python3 perfbench/worker.py --warmup`` imports everything once and
compiles the native kernel into its cache, so no timed run pays for it.
"""

from __future__ import annotations

import importlib
import json
import sys


def load_program() -> dict:
    import repro.cli  # noqa: F401  (what every `repro` command imports)
    from repro import accel
    from repro.accel import native

    loaded = native.load() is not None
    return {
        "accel_backend": accel.get_backend(),
        "native_loaded": loaded,
        "native_error": native.info().get("error"),
    }


def main(argv) -> int:
    env = load_program()
    if argv[1:] == ["--warmup"]:
        print(json.dumps(env))
        return 0
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "GO":
        return 0
    spec = json.loads(sys.stdin.readline())

    import common

    slowed = common.apply_slowdowns()
    module = importlib.import_module(f"work_{spec['workload']}")
    # End-to-end times are scaled by the host's speed; layer times and
    # counts of a traced run are reported as measured.
    probe = common.SpeedProbe()
    if not spec["trace"]:
        probe.start()
    try:
        result = module.run(spec, probe)
    finally:
        probe.stop()
    result["report"]["env"] = dict(env, slowdowns=slowed)
    result["report"]["speed"] = {
        "factor": probe.factor(),
        "samples": len(probe.samples),
    }
    if "peak_rss_mb" not in result["metrics"] and not spec["trace"]:
        result["metrics"]["peak_rss_mb"] = common.peak_rss_mb()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
