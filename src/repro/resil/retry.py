"""Retry, deadline, circuit-breaker, and admission-control primitives.

Everything here is dependency-free and synchronous; async callers own
their own sleeps (``asyncio.sleep``) and pass ``sleep=`` accordingly.
Backoff jitter comes from a dedicated :class:`random.Random` instance so
fault-injection runs stay reproducible when callers seed it.
"""

import random
import threading
import time
from typing import Callable, Optional

from ..obs import metrics as obs_metrics

RETRIES = obs_metrics.REGISTRY.counter(
    "repro_resil_retries_total",
    "Transient failures retried, by call site",
    ("site",),
)
GIVEUPS = obs_metrics.REGISTRY.counter(
    "repro_resil_giveups_total",
    "Retry budgets exhausted (error propagated), by call site",
    ("site",),
)
BREAKER = obs_metrics.REGISTRY.counter(
    "repro_resil_breaker_total",
    "Circuit-breaker transitions and rejections",
    ("event",),
)
_M_SHED = obs_metrics.REGISTRY.counter(
    "repro_resil_shed_total",
    "Requests refused by admission control, by priority class",
    ("priority",),
)
DEADLINES = obs_metrics.REGISTRY.counter(
    "repro_resil_deadline_exceeded_total",
    "Per-task/per-request deadlines blown, by call site",
    ("site",),
)


class TransientFault(RuntimeError):
    """A failure worth retrying (an injected fault, flaky IO).

    Ordinary exceptions are *not* retried: a deterministic bug re-run
    three times is still a bug, just slower.
    """


class InjectedFault(TransientFault):
    """Raised by the fault harness at a scheduled occurrence."""

    def __init__(self, site: str, detail: str = "") -> None:
        super().__init__(
            f"injected fault at {site!r}" + (f": {detail}" if detail else "")
        )
        self.site = site
        self.detail = detail


class DeadlineExceeded(TimeoutError):
    """A per-task or per-request deadline expired."""


class Deadline:
    """A monotonic budget shared across retry attempts."""

    __slots__ = ("seconds", "_expires_at", "_clock")

    def __init__(self, seconds: float, clock: Callable[[], float] = time.monotonic):
        self.seconds = seconds
        self._clock = clock
        self._expires_at = clock() + seconds

    def remaining(self) -> float:
        return max(0.0, self._expires_at - self._clock())

    @property
    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def check(self, site: str = "deadline") -> None:
        if self.expired:
            DEADLINES.inc(site=site)
            raise DeadlineExceeded(
                f"{site}: exceeded {self.seconds:g}s budget"
            )


class RetryPolicy:
    """Exponential backoff with full jitter.

    ``delay(n)`` is the sleep after the n-th failure (1-based):
    ``base_delay * multiplier**(n-1)``, capped at ``max_delay``, then
    scaled by a uniform jitter in ``[1-jitter, 1]``.
    """

    __slots__ = ("max_attempts", "base_delay", "max_delay", "multiplier",
                 "jitter", "_rng")

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay: float = 0.05,
        max_delay: float = 2.0,
        multiplier: float = 2.0,
        jitter: float = 0.5,
        seed: Optional[int] = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self.multiplier = multiplier
        self.jitter = jitter
        self._rng = random.Random(seed)

    def delay(self, failures: int) -> float:
        raw = min(
            self.max_delay,
            self.base_delay * self.multiplier ** max(0, failures - 1),
        )
        if self.jitter <= 0.0:
            return raw
        return raw * (1.0 - self.jitter * self._rng.random())

    def snapshot(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "base_delay": self.base_delay,
            "max_delay": self.max_delay,
            "multiplier": self.multiplier,
            "jitter": self.jitter,
        }


def retry_call(
    fn: Callable,
    *args,
    policy: Optional[RetryPolicy] = None,
    site: str = "call",
    deadline: Optional[Deadline] = None,
    sleep: Callable[[float], None] = time.sleep,
    retry_on: tuple = (TransientFault,),
):
    """Run ``fn(*args)``, retrying ``retry_on`` failures with backoff.

    The final failure (attempts exhausted or deadline blown) propagates
    unchanged; every retried attempt bumps ``repro_resil_retries_total``.
    """
    policy = policy or RetryPolicy()
    failures = 0
    while True:
        if deadline is not None:
            deadline.check(site)
        try:
            return fn(*args)
        except retry_on:
            failures += 1
            if failures >= policy.max_attempts:
                GIVEUPS.inc(site=site)
                raise
            RETRIES.inc(site=site)
            pause = policy.delay(failures)
            if deadline is not None:
                pause = min(pause, deadline.remaining())
            if pause > 0.0:
                sleep(pause)


class CircuitOpen(Exception):
    """The circuit breaker for a build key is open; retry later."""

    def __init__(self, key: str, retry_after: float) -> None:
        super().__init__(
            f"circuit open for {key!r}; retry in {retry_after:.1f}s"
        )
        self.key = key
        self.retry_after = max(0.0, retry_after)


class CircuitBreaker:
    """Closed -> open after N consecutive failures -> half-open probe.

    While open, :meth:`allow` refuses (with a remaining-cooldown hint);
    after the cooldown one probe call is let through — its success
    closes the circuit, its failure re-opens it for another cooldown.
    Its owner counts the refusals (``BREAKER``'s ``rejected`` child).
    """

    __slots__ = ("failure_threshold", "cooldown", "_clock", "_failures",
                 "_state", "_opened_at", "_lock")

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.failure_threshold = max(1, failure_threshold)
        self.cooldown = cooldown
        self._clock = clock
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        return self._state

    def retry_after(self) -> float:
        return max(0.0, self._opened_at + self.cooldown - self._clock())

    def allow(self) -> bool:
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self._clock() - self._opened_at >= self.cooldown:
                    self._state = "half_open"
                    BREAKER.inc(event="half_open")
                    return True
            # open, or half_open with one probe already in flight
            return False

    def record_success(self) -> None:
        with self._lock:
            if self._state != "closed":
                BREAKER.inc(event="closed")
            self._state = "closed"
            self._failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if (
                self._state == "half_open"
                or self._failures >= self.failure_threshold
            ):
                if self._state != "open":
                    BREAKER.inc(event="opened")
                self._state = "open"
                self._opened_at = self._clock()

    def snapshot(self) -> dict:
        return {
            "state": self._state,
            "failures": self._failures,
            "retry_after": round(self.retry_after(), 3)
            if self._state == "open" else 0.0,
        }


class Saturated(Exception):
    """Admission control refused the request (queue full); 429 material."""

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class AdmissionGate:
    """Bounded concurrent admissions with an interactive reserve.

    ``limit`` caps total concurrent work.  Bulk work (cold tile builds)
    is additionally capped at ``limit - reserve`` so a slice of capacity
    always remains for interactive requests (hit-tests, peaks) even
    under a cold-tile stampede.
    """

    __slots__ = ("limit", "bulk_limit", "retry_after", "_admitted", "_lock",
                 "_tally")

    def __init__(
        self,
        limit: int,
        interactive_reserve: float = 0.25,
        retry_after: float = 1.0,
    ) -> None:
        if limit < 1:
            raise ValueError("limit must be >= 1")
        self.limit = limit
        reserve = max(0, min(limit - 1, round(limit * interactive_reserve)))
        self.bulk_limit = limit - reserve
        self.retry_after = retry_after
        self._admitted = 0
        self._tally = obs_metrics.Tally(shed=_M_SHED)
        self._lock = threading.Lock()

    @property
    def admitted(self) -> int:
        return self._admitted

    @property
    def shed(self) -> int:
        return self._tally["shed"]

    def try_acquire(self, interactive: bool = False) -> bool:
        with self._lock:
            cap = self.limit if interactive else self.bulk_limit
            if self._admitted >= cap:
                self._tally.inc(
                    "shed", priority="interactive" if interactive else "bulk"
                )
                return False
            self._admitted += 1
            return True

    def release(self) -> None:
        with self._lock:
            if self._admitted > 0:
                self._admitted -= 1

    def snapshot(self) -> dict:
        return {
            "limit": self.limit,
            "bulk_limit": self.bulk_limit,
            "admitted": self._admitted,
            "shed": self.shed,
        }
