"""CPU-bound stage execution for the server: one bounded thread pool
and per-key request coalescing.

The event loop must never run a pipeline stage inline — a cold terrain
build can take seconds.  :class:`StageRunner` pushes builds onto a
bounded ``ThreadPoolExecutor`` of :data:`THREADS` threads and
**coalesces** them per logical key: any number of concurrent requests
for the same cold artifact await one in-flight build; only the first
actually executes (the single-flight pattern — ``stats["coalesced"]``
counts the riders).  The same pool runs the SSE replays and evolve
runs.

Every serve job is a module-level function of an :class:`LODPyramid` —
``LODPyramid.ensure_levels`` (the cold funnel), ``LODPyramid.tile_payload``,
and :func:`peaks`, :func:`hit`, :func:`treemap_svg`, :func:`profile_svg`
below — run on the server's own pyramid, built over its shared
:class:`ArtifactCache`.
"""

from __future__ import annotations

import asyncio
import contextvars
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

from ..obs.metrics import Tally
from ..resil import faults
from ..resil.retry import (
    BREAKER,
    DEADLINES,
    GIVEUPS,
    RETRIES,
    AdmissionGate,
    CircuitBreaker,
    CircuitOpen,
    Deadline,
    DeadlineExceeded,
    RetryPolicy,
    Saturated,
    TransientFault,
)
from .lod import LODPyramid

#: Breakers are per build key; keep the table bounded (LRU) so a long
#: serve process with unbounded key cardinality cannot grow it forever.
_MAX_BREAKERS = 512

#: Threads in the runner's pool: builds, SSE replays and evolve runs.
THREADS = 4

__all__ = [
    "StageRunner",
    "peaks",
    "hit",
    "treemap_svg",
    "profile_svg",
]


# ----------------------------------------------------------------------
# Request coalescing over a bounded executor
# ----------------------------------------------------------------------
class StageRunner:
    """Single-flight execution of keyed build jobs.

    ``run(key, fn, *args)`` executes ``fn(*args)`` on the pool — unless
    a build for ``key`` is already in flight, in which case the caller
    just awaits that build's future.  Exactly one execution per key at
    any moment, however many clients hit a cold artifact together.
    """

    def __init__(
        self,
        retry: Optional[RetryPolicy] = None,
        max_inflight: int = 0,
        breaker_threshold: int = 5,
        breaker_cooldown: float = 30.0,
    ) -> None:
        self.executor = ThreadPoolExecutor(
            max_workers=THREADS, thread_name_prefix="repro-serve"
        )
        self._inflight: Dict[str, asyncio.Future] = {}
        #: Transient faults (injected faults) are retried with backoff;
        #: deterministic exceptions propagate on the first attempt.
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=4, base_delay=0.05, max_delay=1.0
        )
        #: ``max_inflight > 0`` bounds concurrent *distinct* builds; the
        #: overflow is refused with :class:`Saturated` (→ HTTP 429), and
        #: a quarter of the slots stay reserved for interactive work.
        self.gate = (
            AdmissionGate(max_inflight) if max_inflight > 0 else None
        )
        self.breaker_threshold = breaker_threshold
        self.breaker_cooldown = breaker_cooldown
        self._breakers: "OrderedDict[str, CircuitBreaker]" = OrderedDict()
        self._tally = Tally(
            builds=None, coalesced=None, errors=None, retries=RETRIES,
            breaker_open=BREAKER, deadline_exceeded=DEADLINES,
        )

    @property
    def stats(self) -> Dict[str, int]:
        """Build, rider, retry and refusal counts (``shed`` is the
        admission gate's)."""
        return dict(self._tally, shed=self.gate.shed if self.gate else 0)

    # -- resilience plumbing -------------------------------------------
    def _breaker_for(self, key: str) -> Optional[CircuitBreaker]:
        if self.breaker_threshold <= 0:
            return None
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(
                self.breaker_threshold, self.breaker_cooldown
            )
            self._breakers[key] = breaker
            if len(self._breakers) > _MAX_BREAKERS:
                self._breakers.popitem(last=False)
        else:
            self._breakers.move_to_end(key)
        return breaker

    def _submit(self, loop: asyncio.AbstractEventLoop, fn, args: tuple):
        job_fn, job_args = (
            faults.wrap_job(fn, tuple(args)) if faults.active()
            else (fn, args)
        )
        # Run the job inside a copy of the caller's context so repro.obs
        # span parenting survives the hop onto the pool thread.
        ctx = contextvars.copy_context()
        return loop.run_in_executor(
            self.executor, ctx.run, job_fn, *job_args
        )

    async def _execute(self, fn, args: tuple, deadline: Optional[Deadline]):
        """One logical build: retry transient faults with backoff and
        honour the deadline budget."""
        loop = asyncio.get_running_loop()
        failures = 0
        while True:
            try:
                awaitable = self._submit(loop, fn, args)
                if deadline is None:
                    return await awaitable
                try:
                    return await asyncio.wait_for(
                        awaitable, deadline.remaining()
                    )
                except asyncio.TimeoutError:
                    self._tally.inc("deadline_exceeded", site="stage_runner")
                    raise DeadlineExceeded(
                        f"build exceeded {deadline.seconds:g}s budget"
                    ) from None
            except TransientFault:
                failures += 1
                if failures >= self.retry.max_attempts or (
                    deadline is not None and deadline.expired
                ):
                    GIVEUPS.inc(site="stage_runner")
                    raise
                self._tally.inc("retries", site="stage_runner")
                pause = self.retry.delay(failures)
                if deadline is not None:
                    pause = min(pause, deadline.remaining())
                if pause > 0.0:
                    await asyncio.sleep(pause)

    async def run(
        self,
        key: str,
        fn,
        *args,
        interactive: bool = False,
        timeout: Optional[float] = None,
    ):
        """Run ``fn(*args)`` for ``key``, coalescing concurrent callers.

        All bookkeeping happens synchronously between awaits on the
        (single-threaded) event loop, so no lock is needed: a second
        request for ``key`` always sees the first one's future.

        Resilience semantics: transient faults (injected faults) are
        retried inside the one logical build, so
        ``stats["builds"]`` still counts logical builds and
        ``stats["errors"]`` only final failures.  A saturated admission
        gate raises :class:`Saturated`, an open circuit breaker
        :class:`CircuitOpen` — both *before* any work is queued — and a
        blown ``timeout`` raises :class:`DeadlineExceeded`.
        """
        existing = self._inflight.get(key)
        if existing is not None:
            self._tally.inc("coalesced")
            # shield(): a rider hanging up must not cancel the build
            # other riders (and the cache) are waiting on.
            return await asyncio.shield(existing)
        breaker = self._breaker_for(key)
        if breaker is not None and not breaker.allow():
            self._tally.inc("breaker_open", event="rejected")
            raise CircuitOpen(key, breaker.retry_after())
        if self.gate is not None and not self.gate.try_acquire(
            interactive=interactive
        ):
            raise Saturated(
                f"build queue saturated "
                f"({self.gate.admitted}/{self.gate.limit} in flight)",
                retry_after=self.gate.retry_after,
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        self._tally.inc("builds")
        deadline = Deadline(timeout) if timeout is not None else None
        try:
            value = await self._execute(fn, args, deadline)
        except BaseException as exc:
            self._tally.inc("errors")
            if breaker is not None and not isinstance(
                exc, asyncio.CancelledError
            ):
                breaker.record_failure()
            if not future.done():
                future.set_exception(exc)
                future.exception()  # mark retrieved even with no riders
            raise
        else:
            if breaker is not None:
                breaker.record_success()
            if not future.done():
                future.set_result(value)
            return value
        finally:
            self._inflight.pop(key, None)
            if self.gate is not None:
                self.gate.release()

    def resil_snapshot(self) -> Dict[str, object]:
        """Admission/breaker/retry state for ``/stats``."""
        open_keys = [
            key for key, breaker in self._breakers.items()
            if breaker.state != "closed"
        ]
        return {
            "retry": self.retry.snapshot(),
            "gate": self.gate.snapshot() if self.gate is not None else None,
            "breakers": {
                "tracked": len(self._breakers),
                "open": open_keys[:16],
            },
        }

    def shutdown(self) -> None:
        self.executor.shutdown(wait=False, cancel_futures=True)


# ----------------------------------------------------------------------
# The jobs: functions of a pyramid
# ----------------------------------------------------------------------
def peaks(pyramid: LODPyramid, count: int) -> List[Dict[str, object]]:
    """JSON-ready rows for the ``count`` highest disconnected peaks."""
    pipeline = pyramid.pipeline
    unit = "edges" if pipeline.display_tree.kind == "edge" else "vertices"
    return [
        {
            "node": int(peak.node),
            "alpha": float(peak.alpha),
            "summit": float(peak.summit),
            "prominence": float(peak.prominence),
            "size": int(peak.size),
            "unit": unit,
            "base_area": float(peak.base_area),
        }
        for peak in pipeline.peaks(count=count)
    ]


def hit(pyramid: LODPyramid, x: float, y: float) -> Dict[str, object]:
    """JSON-ready hover hit-test at layout coordinates ``(x, y)``."""
    pipeline = pyramid.pipeline
    layout = pipeline.layout()
    node = layout.node_at(x, y)
    if node is None:
        return {"node": None}
    tree = pipeline.display_tree
    return {
        "node": int(node),
        "alpha": float(tree.scalars[node]),
        "size": int(tree.subtree_size(node)),
        "kind": tree.kind,
        "center": [float(layout.cx[node]), float(layout.cy[node])],
        "radius": float(layout.r[node]),
    }


def treemap_svg(pyramid: LODPyramid, size: int) -> str:
    return pyramid.pipeline.treemap(size=size)


def profile_svg(pyramid: LODPyramid, width: int, height: int) -> str:
    return pyramid.pipeline.profile(width=width, height=height)
