#!/usr/bin/env python
"""CI smoke test for repro.obs: trace a real CLI run, scrape /metrics.

Four legs, all against subprocesses (so the instrumentation is proven
end to end, not just in-process):

1. ``repro terrain --trace trace.jsonl`` on a tiny edge list — assert
   the trace is schema-valid JSONL, covers every pipeline stage plus
   cache get/put events, nests spans under the ``cli.terrain`` root,
   and converts to loadable Chrome ``trace_event`` JSON.
2. ``repro serve`` with ``--trace`` — scrape ``GET /metrics`` and
   assert the Prometheus exposition parses and carries the core metric
   families (cache hits/misses, HTTP latency histogram, uptime gauge),
   and that ``/stats`` exposes the span rollup section and every
   response carries an ``X-Request-Id``; each count ``/stats`` shares
   with ``/metrics`` must be equal, since the fresh server process
   holds one cache and one runner.
3. ``repro prof -- terrain ...`` — assert the CLI profiler passthrough
   writes a non-empty ``.collapsed`` stack file and a well-formed
   flamegraph ``.svg``.
4. The profiling/debug surfaces off a booted server: ``/dash`` renders
   the HTML dashboard with sparklines, ``/debug/prof`` returns both the
   flamegraph SVG and collapsed text, ``/debug/slow`` returns the
   exemplar store JSON.

Exit code 0 on success.  Usage::

    PYTHONPATH=src python scripts/obs_smoke.py        # all legs
    PYTHONPATH=src python scripts/obs_smoke.py prof   # prof legs only
"""

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

from smoke_http import get, wait_for_server

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

REQUIRED_SPAN_KEYS = {"name", "id", "parent", "ts_us", "dur_us", "pid", "tid", "attrs"}
REQUIRED_STAGES = {
    "stage.source", "stage.field", "stage.tree",
    "stage.display", "stage.layout", "stage.heightfield",
    "stage.mesh", "stage.render", "stage.encode",
}
REQUIRED_FAMILIES = {
    "repro_cache_hits_total",
    "repro_cache_misses_total",
    "repro_http_responses_total",
    "repro_http_request_seconds",
    "repro_serve_uptime_seconds",
}
#: Counts on /stats and the /metrics series recording the same events:
#: (path in /stats, family, label set; None sums every child).
SHARED_COUNTS = [
    ("cache.hits", "repro_cache_hits_total", None),
    ("cache.memory_hits", "repro_cache_hits_total", '{tier="memory"}'),
    ("cache.disk_hits", "repro_cache_hits_total", '{tier="disk"}'),
    ("cache.misses", "repro_cache_misses_total", ""),
    ("cache.puts", "repro_cache_puts_total", ""),
    ("cache.evictions", "repro_cache_evictions_total", '{tier="memory"}'),
    ("cache.corrupt", "repro_cache_corrupt_total", ""),
    ("runner.retries", "repro_resil_retries_total", '{site="stage_runner"}'),
    ("runner.deadline_exceeded", "repro_resil_deadline_exceeded_total",
     '{site="stage_runner"}'),
    ("runner.shed", "repro_resil_shed_total", None),
    ("runner.breaker_open", "repro_resil_breaker_total",
     '{event="rejected"}'),
    ("resil.stale_tiles.served", "repro_resil_stale_tiles_total", ""),
]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return env


def check_trace(tmp: Path, edge_list: Path) -> None:
    from repro.obs import trace as obs_trace

    trace_path = tmp / "trace.jsonl"
    out_png = tmp / "terrain.png"
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "terrain",
            "--edge-list", str(edge_list),
            "--measure", "kcore",
            "--resolution", "32", "--width", "64", "--height", "48",
            "-o", str(out_png),
            "--trace", str(trace_path),
        ],
        env=child_env(), cwd=str(REPO),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    assert proc.returncode == 0, proc.stdout.decode(errors="replace")
    assert out_png.exists(), "terrain render missing"

    records = obs_trace.read_jsonl(trace_path)
    assert records, "trace file is empty"
    by_id = {}
    for record in records:
        missing = REQUIRED_SPAN_KEYS - set(record)
        assert not missing, f"span record missing {missing}: {record}"
        by_id[record["id"]] = record
    names = {r["name"] for r in records}
    assert REQUIRED_STAGES <= names, f"stages missing: {REQUIRED_STAGES - names}"
    assert "cache.get" in names and "cache.put" in names, names
    print(f"[ok] trace covers {sorted(names)}")

    roots = [r for r in records if r["parent"] is None]
    assert [r["name"] for r in roots] == ["cli.terrain"], roots
    for record in records:
        if record["parent"] is not None:
            assert record["parent"] in by_id, f"orphan span {record}"
    print(f"[ok] {len(records)} spans, single cli.terrain root, no orphans")

    chrome_path = tmp / "trace.chrome.json"
    trace = obs_trace.chrome_trace_from_jsonl(trace_path, chrome_path)
    reloaded = json.loads(chrome_path.read_text())
    assert reloaded["traceEvents"] == trace["traceEvents"]
    for event in reloaded["traceEvents"]:
        assert event["ph"] == "X" and event["dur"] >= 0, event
    print(f"[ok] Chrome trace: {len(reloaded['traceEvents'])} events")


def check_metrics(tmp: Path, edge_list: Path) -> None:
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--datasets", "",
            "--edge-list", f"toy={edge_list}",
            "--measures", "kcore",
            "--tile-size", "16", "--levels", "2",
            "--trace", str(tmp / "serve_trace.jsonl"),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=child_env(),
    )
    try:
        port = wait_for_server(proc)

        # Generate some traffic: a tile build, a second tile (cache
        # hits), a 404.
        status, headers, _ = get(port, "/t/toy/kcore/0/0/0")
        assert status == 200, status
        assert headers.get("X-Request-Id"), "tile response lacks X-Request-Id"
        assert get(port, "/t/toy/kcore/1/0/0")[0] == 200
        status, headers, _ = get(port, "/t/toy/kcore/9/0/0")
        assert status == 404 and headers.get("X-Request-Id")
        print("[ok] X-Request-Id on 200 and 404 responses")

        status, headers, body = get(port, "/metrics")
        assert status == 200, status
        assert headers["Content-Type"].startswith("text/plain"), headers
        text = body.decode()
        families = set()
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ", 3)
                assert kind in ("counter", "gauge", "histogram"), line
                families.add(name)
            elif line and not line.startswith("#"):
                assert re.fullmatch(
                    r'[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? \S+', line
                ), f"bad exposition line: {line!r}"
        missing = REQUIRED_FAMILIES - families
        assert not missing, f"metric families missing: {missing}"
        assert 'repro_http_request_seconds_bucket{le="+Inf"}' in text
        assert "repro_tiles_served_total" in text
        print(f"[ok] /metrics exposes {len(families)} families incl. core set")

        status, _, body = get(port, "/stats")
        stats = json.loads(body)
        assert "spans" in stats, sorted(stats)
        assert "http.request" in stats["spans"], stats["spans"].keys()
        assert stats["uptime_s"] >= 0
        print(f"[ok] /stats span rollup: {sorted(stats['spans'])}")
        check_shared_counts(stats, text)
        return
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()


def check_shared_counts(stats: dict, exposition: str) -> None:
    samples = {}
    for line in exposition.splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            name, brace, labels = series.partition("{")
            samples[name, brace + labels] = float(value)
    checked = []
    for path, family, labels in SHARED_COUNTS:
        count = stats
        for key in path.split("."):
            count = count[key]
        series = sum(
            value for (name, got), value in samples.items()
            if name == family and labels in (None, got)
        )
        assert count == series, f"/stats {path}={count}, {family} {series}"
        checked.append(f"{path}={count}")
    print(f"[ok] /stats == /metrics: {', '.join(checked)}")


def check_cli_prof(tmp: Path, edge_list: Path) -> None:
    """``repro prof`` passthrough: profile a real terrain run, check
    both artifacts."""
    out_base = tmp / "prof_run"
    out_png = tmp / "prof_terrain.png"
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "prof",
            "-o", str(out_base), "--hz", "97", "--",
            "terrain",
            "--edge-list", str(edge_list),
            "--measure", "kcore",
            "--resolution", "32", "--width", "64", "--height", "48",
            "-o", str(out_png),
        ],
        env=child_env(), cwd=str(REPO),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    output = proc.stdout.decode(errors="replace")
    assert proc.returncode == 0, output
    assert out_png.exists(), "profiled terrain render missing"
    collapsed = out_base.with_suffix(".collapsed")
    svg = out_base.with_suffix(".svg")
    assert collapsed.exists() and svg.exists(), output
    lines = collapsed.read_text().strip().splitlines()
    assert lines, "collapsed profile is empty"
    for line in lines:
        stack, _, count = line.rpartition(" ")
        assert stack and count.isdigit(), f"bad collapsed line: {line!r}"
    import xml.etree.ElementTree as ET

    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg"), root.tag
    print(f"[ok] repro prof: {len(lines)} collapsed stacks + flamegraph SVG")


def check_serve_prof(tmp: Path, edge_list: Path) -> None:
    """Profiling/debug surfaces off a booted server: /dash, /debug/prof
    (svg + collapsed), /debug/slow."""
    import xml.etree.ElementTree as ET

    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--datasets", "",
            "--edge-list", f"toy={edge_list}",
            "--measures", "kcore",
            "--tile-size", "16", "--levels", "2",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=child_env(),
    )
    try:
        port = wait_for_server(proc)

        # Traffic so the dashboard has something to chart.
        status, _, _ = get(port, "/t/toy/kcore/0/0/0")
        assert status == 200, status

        status, headers, body = get(port, "/dash")
        assert status == 200, status
        assert headers["Content-Type"].startswith("text/html"), headers
        page = body.decode()
        assert "<svg" in page, "dashboard has no sparklines"
        assert "/debug/prof" in page and "/debug/slow" in page, "no links"
        print(f"[ok] /dash renders ({len(page)} bytes, sparklines inline)")

        status, headers, body = get(port, "/debug/prof?seconds=1")
        assert status == 200, status
        assert headers["Content-Type"].startswith("image/svg"), headers
        root = ET.fromstring(body.decode())
        assert root.tag.endswith("svg"), root.tag
        print("[ok] /debug/prof?seconds=1 -> flamegraph SVG")

        status, headers, body = get(
            port, "/debug/prof?seconds=1&format=collapsed"
        )
        assert status == 200, status
        assert headers["Content-Type"].startswith("text/plain"), headers
        print("[ok] /debug/prof?format=collapsed -> text")

        status, _, body = get(port, "/debug/slow")
        assert status == 200, status
        slow = json.loads(body)
        assert "threshold_s" in slow and "exemplars" in slow, sorted(slow)
        print(f"[ok] /debug/slow: {slow['observed']} observed, "
              f"{slow['captured']} captured")
        return
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()


def main(argv=None) -> int:
    from repro.graph import from_edges
    from repro.graph.io import write_edge_list

    argv = sys.argv[1:] if argv is None else argv
    leg = argv[0] if argv else "all"
    assert leg in ("all", "trace", "prof"), f"unknown leg {leg!r}"

    tmp = Path(tempfile.mkdtemp(prefix="repro-obs-smoke-"))
    graph = from_edges(
        [(i, j) for i in range(6) for j in range(i + 1, 6)]
        + [(5, 6), (6, 7), (7, 8)]
    )
    edge_list = tmp / "toy.txt"
    write_edge_list(graph, edge_list)

    if leg in ("all", "trace"):
        check_trace(tmp, edge_list)
        check_metrics(tmp, edge_list)
    if leg in ("all", "prof"):
        check_cli_prof(tmp, edge_list)
        check_serve_prof(tmp, edge_list)
    print(f"obs smoke ({leg}): healthy")
    return 0


if __name__ == "__main__":
    sys.exit(main())
