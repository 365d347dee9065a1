#!/usr/bin/env python
"""Run every benchmark file and consolidate a PR-level perf ledger.

Each ``benchmarks/bench_*.py`` runs in its own pytest process (so one
bench's failure or import problem can't sink the rest) with the caller's
environment — set ``REPRO_BENCH_TINY=1`` for CI-smoke sizes and
``REPRO_ACCEL`` to pin a kernel backend.  Every bench subprocess also
runs with ``$REPRO_TRACE`` pointed at a per-bench JSONL sink under
``benchmarks/out/``, so repro.obs spans from the instrumented layers
are captured without any bench opting in.  Results land in
``BENCH_PR10.json``:

* ``benches`` — per-file wall time and exit status;
* ``speedups`` — the kernel speedup columns over the loop oracles
  (``naive``) and between the vector and native tiers (merged from
  ``benchmarks/out/accel_*.json``); the native columns carry the
  tree-build floors (≥10× over the oracle, ≥4× over vector at 1e5 edges),
  asserted inside ``bench_table2_construction.py`` when a toolchain
  exists;
* ``span_rollups`` — per-span-name p50/p95/max/total ms over all spans
  traced across the run (see :func:`repro.obs.trace.rollup`);
* ``env`` — the knobs that shaped the run, including the host
  fingerprint (see :func:`host_fingerprint`) so
  ``scripts/bench_diff.py`` can refuse cross-host comparisons.

Future PRs diff this file against their own run with
``scripts/bench_diff.py`` to keep a perf trajectory.

Usage::

    PYTHONPATH=src python scripts/bench_all.py              # everything
    PYTHONPATH=src python scripts/bench_all.py --only accel # filter
    REPRO_BENCH_TINY=1 python scripts/bench_all.py          # smoke sizes
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(REPO_ROOT / "src"))  # for repro.obs.trace.rollup

_fingerprint_cache: Optional[Dict[str, object]] = None
_fingerprint_lock = threading.Lock()


def _compiler_banner() -> str:
    cc = os.environ.get("CC", "cc")
    try:
        out = subprocess.run(
            [cc, "--version"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=5,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return "none"
    first = out.decode(errors="replace").splitlines()
    return first[0].strip() if first else "none"


def host_fingerprint() -> Dict[str, object]:
    """A stable identity for *this* host's performance envelope.

    Used to stamp bench ledgers so comparisons across different
    machines are refused instead of producing phantom regressions.
    Cached after the first call (the compiler probe costs a
    subprocess).
    """
    global _fingerprint_cache
    with _fingerprint_lock:
        if _fingerprint_cache is None:
            try:
                from repro import accel

                backend = accel.get_backend()
            except Exception:
                backend = "unknown"
            _fingerprint_cache = {
                "cpus": os.cpu_count() or 1,
                "platform": platform.platform(),
                "machine": platform.machine(),
                "python": sys.version.split()[0],
                "compiler": _compiler_banner(),
                "accel": backend,
            }
        return dict(_fingerprint_cache)


def run_bench(path: Path, pytest_args: list, trace_path: Path) -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else src
    )
    # Fresh per-bench trace sink: repro.obs enables itself in the child
    # when $REPRO_TRACE is set (see repro/obs/trace.py).
    trace_path.unlink(missing_ok=True)
    env["REPRO_TRACE"] = str(trace_path)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", str(path)] + pytest_args,
        cwd=str(REPO_ROOT),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    seconds = time.perf_counter() - t0
    tail = proc.stdout.decode(errors="replace").strip().splitlines()[-1:]
    return {
        "seconds": round(seconds, 3),
        "exit_code": proc.returncode,
        "summary": tail[0] if tail else "",
    }


def _native_available() -> bool:
    """Whether the native kernel tier compiled on this host (the ledger
    records it so floor columns are interpretable after the fact)."""
    try:
        from repro.accel import native

        return native.available()
    except Exception:
        return False


def collect_speedups(not_before: float) -> dict:
    """Speedup sidecars written by *this* run (mtime filter keeps stale
    numbers from earlier runs — different env, different filters — out
    of the ledger): the ``accel_*`` kernel speedups."""
    speedups = {}
    for path in sorted(OUT_DIR.glob("accel_*.json")):
        if path.stat().st_mtime < not_before:
            continue
        try:
            speedups[path.stem] = json.loads(path.read_text())
        except ValueError:
            speedups[path.stem] = {"error": "unparseable sidecar"}
    return speedups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--only", default=None, metavar="SUBSTRING",
        help="run only bench files whose name contains SUBSTRING",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_PR10.json"),
        help="consolidated ledger path (default: %(default)s)",
    )
    parser.add_argument(
        "pytest_args", nargs="*",
        help="extra arguments passed through to each pytest run",
    )
    args = parser.parse_args(argv)

    files = sorted(BENCH_DIR.glob("bench_*.py"))
    if args.only:
        files = [f for f in files if args.only in f.name]
    if not files:
        print("no benchmark files matched", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    started = time.time()
    benches = {}
    traces = []
    failed = []
    for path in files:
        print(f"[bench_all] {path.name} ...", flush=True)
        trace_path = OUT_DIR / f"trace_{path.stem}.jsonl"
        result = run_bench(path, args.pytest_args, trace_path)
        benches[path.name] = result
        if trace_path.exists():
            traces.append(trace_path)
        status = "ok" if result["exit_code"] == 0 else "FAIL"
        print(
            f"[bench_all] {path.name}: {status} in {result['seconds']:.1f}s "
            f"({result['summary']})",
            flush=True,
        )
        if result["exit_code"] != 0:
            failed.append(path.name)

    from repro.obs import trace as obs_trace

    records = []
    for trace_path in traces:
        try:
            records.extend(obs_trace.read_jsonl(trace_path))
        except ValueError as exc:
            print(f"[bench_all] skipping bad trace: {exc}", file=sys.stderr)

    ledger = {
        "benches": benches,
        "speedups": collect_speedups(not_before=started - 1.0),
        "span_rollups": obs_trace.rollup(records),
        "env": {
            "tiny": os.environ.get("REPRO_BENCH_TINY", "") not in ("", "0"),
            "accel": os.environ.get("REPRO_ACCEL", "native") or "native",
            "native_available": _native_available(),
            "python": sys.version.split()[0],
            "host": host_fingerprint(),
        },
        "total_seconds": round(sum(b["seconds"] for b in benches.values()), 3),
    }
    output = Path(args.output)
    output.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    print(f"[bench_all] wrote {output} ({len(benches)} benches)")
    if failed:
        print(f"[bench_all] failures: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
