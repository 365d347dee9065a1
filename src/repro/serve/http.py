"""Hand-rolled HTTP/1.1 on ``asyncio.start_server`` — no ``http.server``.

Just enough protocol for the terrain service: GET/HEAD, percent-decoded
paths and query strings, request bodies by ``Content-Length``,
keep-alive, strong-ETag conditional responses, and Server-Sent Events.
Everything is stdlib (``asyncio`` + ``urllib.parse``); the goal is zero
new runtime dependencies, not a general-purpose web framework.

Pieces
------
:class:`Request` / :class:`Response`
    Parsed request and buffered response (``Response.json_`` /
    ``Response.text`` helpers).
:class:`EventStreamResponse`
    A response whose body is an async iterator of ``(event, data)``
    pairs, written as an SSE stream on a connection that then closes.
:class:`Router`
    ``/t/{ds}/{measure}/...``-style segment patterns; ``{name}``
    segments capture into handler keyword arguments.
:class:`HTTPServer`
    The connection loop: parse → route → respond, keep-alive until
    ``Connection: close``, a protocol error, or an event stream.
:class:`HTTPError`
    Raise from a handler to produce a JSON error response with that
    status.  Every error reply, parse errors included, is the same
    ``{"error", "status", "request_id"}`` envelope, and every reply is
    counted, timed, traced and observed in one place
    (``HTTPServer._respond``).
"""

from __future__ import annotations

import asyncio
import itertools
import json
import logging
import math
import os
import time
import traceback
from typing import (
    AsyncIterator,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
)
from urllib.parse import parse_qsl, unquote

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..resil.retry import CircuitOpen, DeadlineExceeded, Saturated

__all__ = [
    "HTTPError",
    "Request",
    "Response",
    "EventStreamResponse",
    "Router",
    "HTTPServer",
]

_REASONS = {
    200: "OK",
    204: "No Content",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}
_MAX_HEADERS = 100
_MAX_BODY = 1 << 20

#: Structured request/error log — one JSON line per record, so a log
#: shipper can parse it without multi-line stitching.
logger = logging.getLogger("repro.serve")

_request_ids = itertools.count(1)

_M_RESPONSES = obs_metrics.REGISTRY.counter(
    "repro_http_responses_total", "HTTP responses by status code.", ("status",)
)
_M_REQUEST_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_http_request_seconds", "HTTP request handling latency."
)
_M_SSE_SESSIONS = obs_metrics.REGISTRY.gauge(
    "repro_sse_sessions", "Currently open Server-Sent-Events streams."
)


def _new_request_id() -> str:
    return f"{os.getpid():x}-{next(_request_ids):x}"


class HTTPError(Exception):
    """The one error type of the reply path: raised by handlers, by the
    request parser and by the SSE session cap, and sent as the JSON
    envelope of :func:`_error_response`.

    ``headers`` ride on the error response (e.g. ``Retry-After`` on a
    429/503, ``Warning`` on a stale fallback); ``retry_after`` is sugar
    for the common load-shedding case.
    """

    def __init__(
        self,
        status: int,
        message: str,
        headers: Optional[List[Tuple[str, str]]] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = list(headers or [])
        if retry_after is not None:
            self.headers.append(
                ("Retry-After", str(max(1, int(round(retry_after)))))
            )


class Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "query", "headers", "body")

    def __init__(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        headers: Dict[str, str],
        body: bytes = b"",
    ) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body

    # -- typed query helpers (400 on bad input) -------------------------
    def query_str(self, name: str, default: Optional[str] = None) -> str:
        value = self.query.get(name, default)
        if value is None:
            raise HTTPError(400, f"missing required query parameter {name!r}")
        return value

    def query_int(
        self,
        name: str,
        default: Optional[int] = None,
        lo: Optional[int] = None,
        hi: Optional[int] = None,
    ) -> int:
        raw = self.query.get(name)
        if raw is None:
            if default is None:
                raise HTTPError(
                    400, f"missing required query parameter {name!r}"
                )
            return default
        try:
            value = int(raw)
        except ValueError:
            raise HTTPError(400, f"query parameter {name}={raw!r} is not an integer")
        if (lo is not None and value < lo) or (hi is not None and value > hi):
            raise HTTPError(400, f"query parameter {name}={value} out of range")
        return value

    def query_float(self, name: str) -> float:
        """A finite float: ``nan`` and ``inf`` parse, but JSON has no
        spelling for them, so they are refused like any non-number."""
        raw = self.query_str(name)
        try:
            value = float(raw)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise HTTPError(400, f"query parameter {name}={raw!r} is not a finite number")
        return value

    def if_none_match(self) -> List[str]:
        """The ``If-None-Match`` header as a list of entity tags."""
        raw = self.headers.get("if-none-match", "")
        return [tag.strip() for tag in raw.split(",") if tag.strip()]


class Response:
    """A fully buffered response."""

    __slots__ = ("status", "body", "headers")

    def __init__(
        self,
        status: int = 200,
        body: bytes = b"",
        content_type: str = "application/octet-stream",
        headers: Optional[List[Tuple[str, str]]] = None,
    ) -> None:
        self.status = status
        self.body = body
        self.headers = list(headers or [])
        if body or status not in (204, 304):
            self.headers.insert(0, ("Content-Type", content_type))

    @classmethod
    def json_(cls, obj, status: int = 200, **kwargs) -> "Response":
        return cls(
            status,
            json.dumps(obj).encode(),
            content_type="application/json",
            **kwargs,
        )

    @classmethod
    def text(
        cls, text: str, status: int = 200, content_type: str = "text/plain"
    ) -> "Response":
        return cls(status, text.encode(), content_type=content_type)

    def render(self, head_only: bool = False) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        lines.extend(f"{name}: {value}" for name, value in self.headers)
        lines.append(f"Content-Length: {len(self.body)}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head if head_only else head + self.body


class EventStreamResponse:
    """Server-Sent Events: ``events`` yields ``(event, data)`` pairs."""

    __slots__ = ("events",)

    def __init__(self, events: AsyncIterator[Tuple[str, str]]) -> None:
        self.events = events


Handler = Callable[..., "object"]


class Router:
    """Segment-pattern router; ``{name}`` segments capture path params."""

    def __init__(self) -> None:
        self._routes: List[Tuple[str, List[str], Handler]] = []

    def get(self, pattern: str, handler: Handler) -> None:
        self._routes.append(("GET", pattern.strip("/").split("/"), handler))

    def match(self, method: str, path: str) -> Tuple[Handler, Dict[str, str]]:
        segments = path.strip("/").split("/")
        found_path = False
        for route_method, route_segments, handler in self._routes:
            if len(route_segments) != len(segments):
                continue
            params: Dict[str, str] = {}
            for pat, seg in zip(route_segments, segments):
                if pat.startswith("{") and pat.endswith("}"):
                    if not seg:
                        break
                    params[pat[1:-1]] = seg
                elif pat != seg:
                    break
            else:
                found_path = True
                # HEAD is answered by the GET handler minus the body.
                if method in (route_method, "HEAD"):
                    return handler, params
        if found_path:
            raise HTTPError(405, f"method {method} not allowed")
        raise HTTPError(404, f"no route for {path}")


async def _read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request; ``None`` when the peer closed the connection
    (before the request line or in the middle of the body).

    Raises :class:`HTTPError` (400/413) on malformed input.
    """
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError):
        raise HTTPError(400, "request line too long")
    if not line:
        return None
    parts = line.decode("latin-1", "replace").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HTTPError(400, "malformed request line")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for _ in range(_MAX_HEADERS):
        try:
            raw = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError):
            raise HTTPError(400, "header line too long")
        if raw in (b"\r\n", b"\n", b""):
            break
        name, sep, value = raw.decode("latin-1", "replace").partition(":")
        if not sep:
            raise HTTPError(400, "malformed header line")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HTTPError(400, "too many headers")
    if "chunked" in headers.get("transfer-encoding", "").lower():
        # Reading no body would desync keep-alive framing (the first
        # chunk-size line would parse as the next request line).
        raise HTTPError(400, "chunked request bodies are not supported")
    body = b""
    if "content-length" in headers:
        value = headers["content-length"]
        # ASCII digits only: int() would also read '+3', '1_0' and '-0'.
        if not (value.isascii() and value.isdigit()):
            raise HTTPError(400, "bad Content-Length")
        try:
            length = int(value)
        except ValueError:  # past int()'s digit limit: far too large
            length = _MAX_BODY + 1
        if length > _MAX_BODY:
            raise HTTPError(413, "request body too large")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return None  # the peer closed mid-body
    path, _, qs = target.partition("?")
    query = dict(parse_qsl(qs, keep_blank_values=True))
    return Request(method.upper(), unquote(path) or "/", query, headers, body)


#: Resilience failures a handler may raise and the status each becomes.
_RESIL_STATUS = ((Saturated, 429), (CircuitOpen, 503), (DeadlineExceeded, 504))


def _as_http_error(
    exc: Exception, request: Request, request_id: str
) -> HTTPError:
    """The one :class:`HTTPError` a handler's exception becomes.

    Resilience failures map through :data:`_RESIL_STATUS`, with their
    ``retry_after`` as ``Retry-After`` when they carry one.  Anything
    else is a 500: one structured JSON log line with the traceback
    (escaped inside the JSON), never the traceback in the body — clients
    get a generic message plus the request id to quote back at
    operators.  Call it from the ``except`` block that caught ``exc``."""
    if isinstance(exc, HTTPError):
        return exc
    for kind, status in _RESIL_STATUS:
        if isinstance(exc, kind):
            return HTTPError(
                status, str(exc), retry_after=getattr(exc, "retry_after", None)
            )
    logger.error(json.dumps({
        "event": "request_error",
        "request_id": request_id,
        "method": request.method,
        "route": request.path,
        "status": 500,
        "exception": f"{type(exc).__name__}: {exc}",
        "traceback": traceback.format_exc(),
    }, sort_keys=True))
    return HTTPError(500, "internal server error")


def _error_response(exc: HTTPError, request_id: str, close: bool) -> Response:
    """The JSON envelope of every error reply: ``{"error", "status",
    "request_id"}``, the error's headers (``Retry-After``) and, when the
    connection ends with it, ``Connection: close``."""
    headers = exc.headers + ([("Connection", "close")] if close else [])
    return Response.json_(
        {"error": exc.message, "status": exc.status, "request_id": request_id},
        status=exc.status,
        headers=headers,
    )


def _sse_chunk(event: str, data: str) -> bytes:
    lines = data.splitlines() or [""]
    frame = f"event: {event}\n" + "".join(f"data: {ln}\n" for ln in lines)
    return (frame + "\n").encode()


async def _aclose_quietly(events) -> None:
    """Close an async generator of SSE events, swallowing the teardown
    noise (the generator sees GeneratorExit at its current yield and
    stops building frames)."""
    aclose = getattr(events, "aclose", None)
    if aclose is None:
        return
    try:
        await aclose()
    except Exception:
        pass


class HTTPServer:
    """The asyncio connection loop around a :class:`Router`."""

    def __init__(
        self,
        router: Router,
        host: str = "127.0.0.1",
        port: int = 0,
        max_sse_sessions: int = 0,
    ) -> None:
        self.router = router
        self.host = host
        self.port = port
        #: ``> 0`` caps concurrently streaming SSE sessions; the
        #: overflow gets 429 + Retry-After instead of an unbounded pile
        #: of replay threads.
        self.max_sse_sessions = max_sse_sessions
        #: Optional per-reply hook: called with keyword arguments
        #: ``path, request_id, status, t0_wall, dur_s`` once for every
        #: reply, parse errors and refused streams included (``path`` is
        #: ``""`` when the request did not parse).  The serve app wires
        #: its slow-request exemplar store here; errors in the hook are
        #: swallowed (debug surfaces must never fail a request that
        #: already succeeded).
        self.request_observer = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._sse_active = 0
        self._active_requests = 0
        # Created in start() — asyncio.Event needs the running loop on
        # older interpreters.
        self._closing: Optional[asyncio.Event] = None

    async def start(self) -> int:
        """Bind and start accepting; returns the actual port (useful
        when constructed with the ephemeral port 0)."""
        self._closing = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def drain(self, grace: float = 10.0) -> None:
        """Graceful shutdown (SIGTERM): stop accepting, let in-flight
        requests finish, end every SSE stream with a terminal
        ``shutdown`` event, then hang up — all within ``grace`` seconds
        (stragglers are force-closed after that)."""
        if self._server is not None:
            self._server.close()
            try:
                await asyncio.wait_for(self._server.wait_closed(), timeout=5)
            except asyncio.TimeoutError:
                pass
            self._server = None
        if self._closing is not None:
            self._closing.set()  # SSE loops notice and say goodbye
        loop = asyncio.get_running_loop()
        deadline = loop.time() + grace
        while (
            (self._active_requests or self._sse_active)
            and loop.time() < deadline
        ):
            await asyncio.sleep(0.02)
        await self.aclose()

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            try:
                await asyncio.wait_for(self._server.wait_closed(), timeout=5)
            except asyncio.TimeoutError:
                pass
            self._server = None
        if self._closing is not None:
            self._closing.set()
        # Hang up idle keep-alive peers so their handler tasks finish
        # before the loop goes away.
        for writer in list(self._connections):
            writer.close()
        for _ in range(100):
            if not self._connections:
                break
            await asyncio.sleep(0.01)

    # ------------------------------------------------------------------
    async def _respond(
        self,
        request_id: str,
        request: Optional[Request],
        error: Optional[HTTPError] = None,
    ):
        """The one reply path: answer ``request``, or the parse ``error``
        that stood in for it.

        Routing and the handler run inside an ``http.request`` span.  A
        handler's exception becomes one :class:`HTTPError`
        (:func:`_as_http_error`); an event stream reserves its SSE slot
        (released by :meth:`_handle` when the stream ends) or, at the
        session cap, becomes a 429; every error is rendered by
        :func:`_error_response`.  The reply is then counted, timed,
        traced and observed here, once, under the status it is sent
        with, before any byte of it goes out."""
        t0 = time.perf_counter()
        t0_wall = time.time()
        method, path = (
            ("", "") if request is None else (request.method, request.path)
        )
        with obs_trace.span(
            "http.request", method=method, path=path, request_id=request_id
        ) as sp:
            response = None
            if error is None:
                try:
                    handler, params = self.router.match(method, path)
                    response = await handler(request, **params)
                    if isinstance(response, EventStreamResponse):
                        if 0 < self.max_sse_sessions <= self._sse_active:
                            # Shut the handler's generator down before
                            # it builds a frame.
                            await _aclose_quietly(response.events)
                            raise HTTPError(
                                429, "SSE session limit reached",
                                retry_after=1,
                            )
                        self._sse_active += 1
                        _M_SSE_SESSIONS.inc()
                except Exception as exc:
                    error = _as_http_error(exc, request, request_id)
            if error is not None:
                # A parse error or a refused stream ends the connection.
                response = _error_response(
                    error,
                    request_id,
                    close=request is None
                    or isinstance(response, EventStreamResponse),
                )
            if isinstance(response, Response):
                response.headers.append(("X-Request-Id", request_id))
                status = response.status
            else:
                status = 200
            sp.set(status=status)
        dur_s = time.perf_counter() - t0
        _M_REQUEST_SECONDS.observe(dur_s)
        _M_RESPONSES.inc(status=str(status))
        if self.request_observer is not None:
            try:
                self.request_observer(
                    path=path,
                    request_id=request_id,
                    status=status,
                    t0_wall=t0_wall,
                    dur_s=dur_s,
                )
            except Exception:
                pass
        return response

    async def _stream_events(self, events, writer) -> None:
        """Pump an SSE generator to the peer until it finishes, the peer
        hangs up, or the server starts draining — in which case the
        stream ends with a terminal ``shutdown`` event so well-behaved
        clients know not to reconnect immediately."""
        iterator = events.__aiter__()
        while True:
            if self._closing is not None and self._closing.is_set():
                writer.write(_sse_chunk(
                    "shutdown", json.dumps({"reason": "server draining"})
                ))
                await writer.drain()
                return
            next_task = asyncio.ensure_future(iterator.__anext__())
            if self._closing is None:
                done = {next_task}
            else:
                closing_task = asyncio.ensure_future(self._closing.wait())
                done, pending = await asyncio.wait(
                    {next_task, closing_task},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                for task in pending:
                    task.cancel()
                if next_task not in done:
                    # Drain won the race: terminal event, then hang up.
                    writer.write(_sse_chunk(
                        "shutdown",
                        json.dumps({"reason": "server draining"}),
                    ))
                    await writer.drain()
                    return
            try:
                event, data = await next_task
            except StopAsyncIteration:
                return
            writer.write(_sse_chunk(event, data))
            await writer.drain()
            if writer.is_closing():
                # Peer hung up mid-replay; stop building frames.
                return

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                request_id = _new_request_id()
                try:
                    request, error = await _read_request(reader), None
                except HTTPError as exc:
                    request, error = None, exc
                if request is None and error is None:
                    break  # the peer closed
                self._active_requests += 1
                try:
                    response = await self._respond(request_id, request, error)
                finally:
                    self._active_requests -= 1
                if isinstance(response, EventStreamResponse):
                    try:
                        writer.write(
                            b"HTTP/1.1 200 OK\r\n"
                            b"Content-Type: text/event-stream\r\n"
                            b"Cache-Control: no-cache\r\n"
                            b"Connection: close\r\n"
                            + f"X-Request-Id: {request_id}\r\n\r\n".encode("latin-1")
                        )
                        await writer.drain()
                        if request.method != "HEAD":
                            await self._stream_events(response.events, writer)
                    finally:
                        # Always runs — client disconnects included: the
                        # slot is released, the gauge drops, and closing
                        # the generator stops frame builds for the dead
                        # session.
                        self._sse_active -= 1
                        _M_SSE_SESSIONS.dec()
                        await _aclose_quietly(response.events)
                    break
                writer.write(response.render(
                    head_only=request is not None and request.method == "HEAD"
                ))
                await writer.drain()
                if ("Connection", "close") in response.headers or (
                    request.headers.get("connection", "").lower() == "close"
                ):
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
