"""The reply contract of ``repro serve``, checked on the wire.

``replies.json`` holds one reply of every kind the HTTP layer sends:
its status line, headers and body, with the per-request id masked.
``TestReplyRecord`` checks that a live server still sends exactly
those bytes.  ``TestOneRecordPerReply`` checks that each reply is
counted, timed, traced and observed once, under the status it was sent
with.

After a deliberate reply change, rewrite the record with::

    PYTHONPATH=src python tests/serve/test_replies.py --update
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.graph.io import write_edge_list
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.serve import ServeApp, ServerThread

from serve_client import StubApp, exchange, open_sse, read_until, toy_graph

RECORD = Path(__file__).resolve().with_name("replies.json")
MASK = "<request-id>"


def _request(target, *headers, method="GET"):
    lines = [f"{method} {target} HTTP/1.1", "Host: localhost"]
    lines += list(headers) + ["Connection: close"]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def _head_of(raw):
    """(status, {header: value}) of one raw reply."""
    head = raw.partition(b"\r\n\r\n")[0].decode("latin-1").split("\r\n")
    fields = dict(line.split(": ", 1) for line in head[1:])
    return int(head[0].split()[1]), fields


def masked(raw):
    """One raw reply as a record: its head lines and body, the request
    id masked in both and ``Content-Length`` moved by the masking's
    length change."""
    head, __, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    fields = dict(line.split(": ", 1) for line in lines[1:])
    rid = fields["X-Request-Id"]
    masked_body = body.replace(rid.encode(), MASK.encode())
    lines = [line.replace(rid, MASK) for line in lines]
    if "Content-Length" in fields:
        length = int(fields["Content-Length"]) + len(masked_body) - len(body)
        lines = [
            f"Content-Length: {length}"
            if line.startswith("Content-Length: ") else line
            for line in lines
        ]
    if fields.get("Content-Type", "").startswith(("application/json", "text/")):
        shown = masked_body.decode()
    else:
        shown = {
            "sha256": hashlib.sha256(masked_body).hexdigest(),
            "bytes": len(masked_body),
        }
    return {"head": lines, "body": shown}


def collect(workdir):
    """One reply of every kind from a live server, as records."""
    edges = Path(workdir) / "toy.txt"
    write_edge_list(toy_graph(), edges)
    app = ServeApp(tile_size=16, levels=2)
    app.add_dataset("toy", ["kcore"], edge_list=str(edges))
    replies = {}
    with ServerThread(StubApp(app), max_sse_sessions=1) as server:
        port = server.port
        tile = "/t/toy/kcore/0/0/0"
        replies["tile_200"] = exchange(port, _request(tile))
        etag = _head_of(replies["tile_200"])[1]["ETag"]
        for kind, raw in (
            ("tile_304", _request(tile, f"If-None-Match: {etag}")),
            ("tile_head_200", _request(tile, method="HEAD")),
            ("tile_coordinates_400", _request("/t/toy/kcore/x/0/0")),
            ("tile_404", _request("/t/toy/kcore/9/0/0")),
            ("route_404", _request("/no-such-route")),
            ("method_405", _request("/healthz", method="PUT")),
            ("request_line_400", b"NONSENSE\r\n\r\n"),
            ("body_too_large_413", _request("/healthz", "Content-Length: 99999999")),
            ("saturated_429", _request("/saturated")),
            ("circuit_open_503", _request("/circuit")),
            ("deadline_504", _request("/deadline")),
            ("internal_500", _request("/boom")),
        ):
            replies[kind] = exchange(port, raw)
        held = open_sse(port, "/hold")
        try:
            head = read_until(held, "\r\n\r\n").partition(b"\r\n\r\n")[0]
            replies["sse_head_200"] = head + b"\r\n\r\n"
            replies["sse_cap_429"] = exchange(port, _request("/hold"))
        finally:
            held.close()
    return {kind: masked(raw) for kind, raw in replies.items()}


def _comparable(records, exact):
    """Tile bytes and their ETags come from float geometry, whose last
    bits numpy does not promise across versions: under another numpy
    they are masked and every other byte is still compared."""
    if exact:
        return records
    out = {}
    for kind, record in records.items():
        head = [
            "ETag: <etag>" if line.startswith("ETag: ") else line
            for line in record["head"]
        ]
        body = record["body"]
        if isinstance(body, dict):
            body = dict(body, sha256="<tile>")
        out[kind] = {"head": head, "body": body}
    return out


class TestReplyRecord:
    def test_every_reply_kind_matches_the_record(self, tmp_path):
        recorded = json.loads(RECORD.read_text())
        exact = recorded["numpy"] == np.__version__
        got = _comparable(collect(tmp_path), exact)
        want = _comparable(recorded["replies"], exact)
        assert sorted(got) == sorted(want)
        for kind in want:
            assert got[kind] == want[kind], kind


def _responses():
    family = obs_metrics.REGISTRY.counter(
        "repro_http_responses_total", labelnames=("status",)
    )
    return {labels[0]: value for labels, value in family.children()}


def _timed():
    return obs_metrics.REGISTRY.histogram("repro_http_request_seconds").child()[2]


def _delta(before, after):
    return {
        status: after[status] - before.get(status, 0.0)
        for status in after
        if after[status] != before.get(status, 0.0)
    }


class TestOneRecordPerReply:
    @pytest.fixture(scope="class")
    def sent(self):
        """Two SSE GETs under a cap of one (held, then refused), then a
        mix with parse errors; each phase's metric deltas, the sent
        ``(request_id, status)`` pairs, and what the observer and the
        ``http.request`` spans saw."""
        ring = obs_trace.RingBufferExporter()
        was_enabled = obs_trace.enabled()
        obs_trace.add_exporter(ring)
        obs_trace.set_enabled(True)
        app = StubApp()
        replies = []
        try:
            with ServerThread(app, max_sse_sessions=1) as server:
                port = server.port
                start = (_responses(), _timed())
                held = open_sse(port, "/hold")
                try:
                    replies.append(read_until(held, "\r\n\r\n"))
                    replies.append(exchange(port, _request("/hold")))
                finally:
                    held.close()
                streams = (_responses(), _timed())
                for raw in (
                    _request("/ok"),
                    b"GET / HTTP/1.1 extra\r\n\r\n",
                    _request("/ok", "Content-Length: 99999999"),
                    _request("/no-such-route"),
                ):
                    replies.append(exchange(port, raw))
                end = (_responses(), _timed())
        finally:
            obs_trace.set_enabled(was_enabled)
            obs_trace.remove_exporter(ring)
        heads = [_head_of(raw) for raw in replies]
        spans = {
            record["attrs"]["request_id"]: record["attrs"].get("status")
            for record in ring.snapshot()
            if record["name"] == "http.request"
        }
        return {
            "sent": [(fields["X-Request-Id"], status) for status, fields in heads],
            "streams": (_delta(start[0], streams[0]), streams[1] - start[1]),
            "all": (_delta(start[0], end[0]), end[1] - start[1]),
            "observed": list(app.observed),
            "spans": spans,
        }

    def test_sse_cap_refusal_is_one_429(self, sent):
        assert [status for __, status in sent["sent"][:2]] == [200, 429]
        counted, timed = sent["streams"]
        assert counted == {"200": 1.0, "429": 1.0}
        assert timed == 2

    def test_each_written_reply_is_counted_and_timed_once(self, sent):
        statuses = [status for __, status in sent["sent"]]
        assert statuses == [200, 429, 200, 400, 413, 404]
        counted, timed = sent["all"]
        assert counted == {"200": 2.0, "429": 1.0, "400": 1.0, "413": 1.0,
                           "404": 1.0}
        assert timed == len(statuses)

    def test_observer_and_span_see_the_sent_status(self, sent):
        assert sent["observed"] == sent["sent"]
        traced = [(rid, sent["spans"].get(rid)) for rid, __ in sent["sent"]]
        assert traced == sent["sent"]


def main(argv):
    if argv != ["--update"]:
        print(__doc__)
        return 2
    with tempfile.TemporaryDirectory() as workdir:
        replies = collect(workdir)
    RECORD.write_text(
        json.dumps({"numpy": np.__version__, "replies": replies}, indent=1)
        + "\n"
    )
    print(f"wrote {len(replies)} reply records to {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
