"""Run a :class:`ServeApp` on a background thread (tests, benchmarks,
example clients).

``ServerThread`` owns a private event loop on a daemon thread, binds an
ephemeral port by default, and tears everything down on exit::

    with ServerThread(app) as server:
        http.client.HTTPConnection("127.0.0.1", server.port)...
"""

from __future__ import annotations

import asyncio
import threading
from typing import Optional

from .app import ServeApp
from .http import HTTPServer

__all__ = ["ServerThread"]


class ServerThread:
    """Context manager: the app's HTTP server, live on its own thread."""

    def __init__(
        self,
        app: ServeApp,
        host: str = "127.0.0.1",
        port: int = 0,
        max_sse_sessions: int = 0,
    ) -> None:
        self.app = app
        self.host = host
        self.port = port
        self.url = ""
        self.max_sse_sessions = max_sse_sessions
        self.server: Optional[HTTPServer] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped: Optional[asyncio.Future] = None
        self._started = threading.Event()
        self._error: Optional[BaseException] = None

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        server = HTTPServer(
            self.app.router(), self.host, self.port,
            max_sse_sessions=self.max_sse_sessions,
        )
        # Slow-request exemplars (span waterfall + profile slice under
        # /debug/slow) ride the server's post-response hook.  Stub apps
        # without the hook (resilience tests) just skip it.
        server.request_observer = getattr(self.app, "observe_request", None)
        self.server = server
        try:
            loop.run_until_complete(server.start())
        except BaseException as exc:  # bind failure: surface in __enter__
            self._error = exc
            self._started.set()
            loop.close()
            return
        self.port = server.port
        self.url = f"http://{self.host}:{self.port}"
        self._stopped = loop.create_future()
        self._started.set()
        try:
            loop.run_until_complete(self._stopped)
        finally:
            loop.run_until_complete(server.aclose())
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    def __enter__(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("server thread failed to start in 30s")
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        return self

    def run_coroutine(self, coro, timeout: float = 60.0):
        """Run ``coro`` on the server's loop from the calling thread —
        e.g. ``server.run_coroutine(server.server.drain())`` to exercise
        the graceful-shutdown path from a test."""
        assert self._loop is not None, "server not started"
        return asyncio.run_coroutine_threadsafe(
            coro, self._loop
        ).result(timeout=timeout)

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._stopped is not None:
            def _stop() -> None:
                if not self._stopped.done():
                    self._stopped.set_result(None)

            self._loop.call_soon_threadsafe(_stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
        self.app.close()
