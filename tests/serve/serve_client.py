"""Helpers shared by the terrain server tests: the toy graph, a stub
app whose routes raise each error the reply path maps, an
``http.client`` wrapper, an SSE reader and raw-socket exchanges.

The module has a name of its own so that ``from serve_client import …``
binds to this file whichever ``conftest`` pytest imported last."""

import asyncio
import http.client
import json
import socket
import time

from repro.graph import from_edges
from repro.resil.retry import CircuitOpen, DeadlineExceeded, Saturated
from repro.serve.http import EventStreamResponse, Response, Router


def toy_graph():
    """K6 (a 5-core) plus a tail — two peaks at very different heights."""
    return from_edges(
        [(i, j) for i in range(6) for j in range(i + 1, 6)]
        + [(5, 6), (6, 7), (7, 8)]
    )


async def _ok(request):
    return Response.json_({"ok": True})


async def _saturated(request):
    raise Saturated("queue full", retry_after=2.0)


async def _circuit(request):
    raise CircuitOpen("toy/kcore", 12.0)


async def _deadline(request):
    raise DeadlineExceeded("build exceeded 0.5s budget")


async def _boom(request):
    raise RuntimeError("kaboom")


async def _hold(request):
    """An event stream that stays open until the server drains."""
    async def events():
        yield "hello", "{}"
        await asyncio.sleep(3600)

    return EventStreamResponse(events())


class StubApp:
    """``ServerThread``'s app interface over ``app``'s routes (if any)
    plus stub routes: ``/ok``, ``/saturated``, ``/circuit``,
    ``/deadline``, ``/boom`` (a 500) and ``/hold`` (an event stream);
    its request observer keeps ``(request_id, status)`` pairs."""

    def __init__(self, app=None):
        self.app = app
        self._router = app.router() if app is not None else Router()
        for path, handler in (
            ("/ok", _ok), ("/saturated", _saturated), ("/circuit", _circuit),
            ("/deadline", _deadline), ("/boom", _boom), ("/hold", _hold),
        ):
            self._router.get(path, handler)
        self.observed = []

    def router(self):
        return self._router

    def close(self):
        if self.app is not None:
            self.app.close()

    def observe_request(self, *, request_id, status, **__):
        self.observed.append((request_id, status))


class Client:
    """Tiny convenience wrapper over ``http.client`` for assertions."""

    def __init__(self, port):
        self.port = port

    def get(self, url, headers=None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", url, headers=headers or {})
            response = conn.getresponse()
            body = response.read()
            return response.status, dict(response.getheaders()), body
        finally:
            conn.close()

    def get_json(self, url):
        status, headers, body = self.get(url)
        return status, json.loads(body)


def read_sse(port, url, timeout=120):
    """Collect the full SSE stream as a list of (event, json) pairs."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", url)
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "text/event-stream"
        events = []
        event, data = None, []
        for raw in response.read().decode().splitlines():
            if raw.startswith("event: "):
                event = raw[len("event: "):]
            elif raw.startswith("data: "):
                data.append(raw[len("data: "):])
            elif not raw and event is not None:
                events.append((event, json.loads("\n".join(data))))
                event, data = None, []
        return events
    finally:
        conn.close()


def open_sse(port, path):
    """A raw streaming GET — http.client buffers, sockets don't."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=30)
    sock.sendall(
        f"GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n".encode()
    )
    return sock


def read_until(sock, token, timeout=30):
    sock.settimeout(timeout)
    buf = b""
    deadline = time.time() + timeout
    while token.encode() not in buf:
        if time.time() > deadline:
            raise AssertionError(f"{token!r} never arrived; got {buf!r}")
        chunk = sock.recv(4096)
        if not chunk:
            break
        buf += chunk
    return buf


def exchange(port, raw, timeout=30):
    """Send ``raw`` request bytes and read the reply until the server
    hangs up (ask for ``Connection: close`` on keep-alive routes)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)
