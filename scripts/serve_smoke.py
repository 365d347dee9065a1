#!/usr/bin/env python
"""CI smoke test: boot ``repro serve`` for real and curl every endpoint.

Generates a tiny graph + edit log, launches the CLI server as a
subprocess on an ephemeral port, then asserts over plain HTTP:

* ``/datasets``, ``/healthz``, ``/stats`` answer 200 with sane JSON;
* a tile GET answers 200 with a parseable binary tile and a strong
  ETag, and revalidating with ``If-None-Match`` answers 304;
* ``/peaks`` and ``/hit`` answer 200 with the planted structure;
* ``/treemap.svg`` and ``/profile.svg`` answer SVG;
* ``/stream/smoke`` pushes at least one SSE frame and finishes;
* ``examples/serve_client.py --url`` assembles the terrain and exits 0;
* after a SIGTERM drain, a second server over the same ``--cache-dir``
  and with ``--cache-memory-mb 0`` (every stage result is evicted as
  soon as the next is stored) answers every tile of the pyramid with
  the same ETag and bytes as the first, ``/stats`` counts evictions,
  and no document in that directory is a ``"type": "tile"`` (tiles are
  never cached).

Exit code 0 on success.  Usage::

    PYTHONPATH=src python scripts/serve_smoke.py
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

#: Every tile of the served pyramid (16-cell tiles, 2 levels).
TILE_URLS = [
    f"/t/toy/kcore/{level}/{tx}/{ty}"
    for level, per in ((0, 2), (1, 1))
    for ty in range(per)
    for tx in range(per)
]


def main() -> int:
    from repro.graph import from_edges
    from repro.graph.io import write_edge_list
    from repro.stream import SetScalar, write_edit_log

    tmp = Path(tempfile.mkdtemp(prefix="repro-serve-smoke-"))
    graph = from_edges(
        [(i, j) for i in range(6) for j in range(i + 1, 6)]
        + [(5, 6), (6, 7), (7, 8)]
    )
    edge_list = tmp / "toy.txt"
    write_edge_list(graph, edge_list)
    log = write_edit_log(
        tmp / "edits.jsonl", [[SetScalar(8, 4.0)]], times=[1.0]
    )

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    cache_dir = tmp / "cache"
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--port", "0",
        "--datasets", "",            # only the edge list below
        "--edge-list", f"toy={edge_list}",
        "--measures", "kcore",
        "--tile-size", "16", "--levels", "2",
        "--stream-log", f"smoke=toy:kcore:{log}",
        "--cache-dir", str(cache_dir),
    ]

    def boot(*extra):
        return subprocess.Popen(
            argv + list(extra), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, env=env,
        )

    proc = boot()
    try:
        port = wait_for_server(proc)

        status, _, body = get(port, "/datasets")
        assert status == 200, status
        doc = json.loads(body)
        assert doc["datasets"][0]["name"] == "toy"
        assert doc["sessions"] == ["smoke"]
        print("[ok] /datasets")

        tile_url = "/t/toy/kcore/0/0/1"
        status, headers, tile_body = get(port, tile_url)
        assert status == 200 and tile_body, (status, len(tile_body))
        etag = headers["ETag"]
        assert re.fullmatch(r'"[0-9a-f]{32}"', etag), etag

        from repro.terrain.heightfield import Tile

        tile = Tile.from_bytes(tile_body)
        assert tile.size == 16 and (tile.tx, tile.ty) == (0, 1)
        print(f"[ok] {tile_url} -> 200, ETag {etag}")

        status, headers, body = get(
            port, tile_url, headers={"If-None-Match": etag}
        )
        assert status == 304 and body == b"", (status, body)
        assert headers["ETag"] == etag
        print(f"[ok] {tile_url} revalidation -> 304")

        tiles = {}
        for url in TILE_URLS:
            status, headers, body = get(port, url)
            assert status == 200 and body, (url, status)
            tiles[url] = (headers["ETag"], body)
        assert tiles[tile_url] == (etag, tile_body)
        print(f"[ok] all {len(tiles)} tiles of the pyramid")

        status, _, _ = get(port, "/t/toy/kcore/9/0/0")
        assert status == 404, status
        print("[ok] out-of-range tile -> 404")

        status, _, body = get(port, "/peaks?dataset=toy&measure=kcore")
        assert status == 200
        peaks = json.loads(body)["peaks"]
        assert peaks[0]["alpha"] == 5.0 and peaks[0]["size"] == 6, peaks
        print("[ok] /peaks (K6 is the 5-core)")

        status, _, body = get(port, "/hit?dataset=toy&measure=kcore&x=0&y=0")
        assert status == 200 and json.loads(body)["node"] is not None
        print("[ok] /hit")

        for url in (
            "/treemap.svg?dataset=toy&measure=kcore",
            "/profile.svg?dataset=toy&measure=kcore",
        ):
            status, headers, body = get(port, url)
            assert status == 200 and body.startswith(b"<svg"), url
            print(f"[ok] {url}")

        status, headers, body = get(port, "/stream/smoke")
        assert status == 200
        assert headers["Content-Type"] == "text/event-stream"
        text = body.decode()
        assert "event: hello" in text
        assert "event: frame" in text
        assert "event: done" in text
        print("[ok] /stream/smoke (SSE hello/frame/done)")

        status, _, body = get(port, "/stats")
        stats = json.loads(body)
        assert stats["runner"]["builds"] >= 1
        assert "resil" in stats, sorted(stats)
        print(f"[ok] /stats: {stats['runner']}")

        client = subprocess.run(
            [
                sys.executable, str(REPO / "examples" / "serve_client.py"),
                "--url", f"http://127.0.0.1:{port}", "--stream", "smoke",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, timeout=120,
        )
        assert client.returncode == 0, client.stdout
        assert "summit hit-test" in client.stdout, client.stdout
        print("[ok] examples/serve_client.py --url")

        # SIGTERM must drain: finish in-flight work and exit cleanly.
        proc.terminate()
        rc = proc.wait(timeout=30)
        assert rc == 0, f"SIGTERM drain exited rc={rc}"
        print("[ok] SIGTERM -> drained, clean exit")

        # A restart over the same cache directory, with a zero memory
        # budget, rebuilds what it evicts and serves the same tiles.
        proc.stdout.close()
        proc = boot("--cache-memory-mb", "0")
        port = wait_for_server(proc)
        for url, (want_etag, want_body) in tiles.items():
            status, headers, again = get(port, url)
            assert status == 200 and headers["ETag"] == want_etag, (
                url, status, headers,
            )
            assert again == want_body, url
        status, _, body = get(port, "/stats")
        evictions = json.loads(body)["cache"]["evictions"]
        assert evictions > 0, evictions
        kinds = {
            json.loads(path.read_text()).get("type")
            for path in cache_dir.glob("*.json")
        }
        assert kinds and "tile" not in kinds, kinds
        print(f"[ok] restart over --cache-dir with --cache-memory-mb 0: "
              f"all {len(tiles)} tiles same ETag and bytes, {evictions} "
              f"evictions; cached document types {sorted(kinds)}")

        print("serve smoke: all endpoints healthy")
        return 0
    finally:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
        proc.stdout.close()


if __name__ == "__main__":
    sys.exit(main())
