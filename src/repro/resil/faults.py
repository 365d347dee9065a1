"""Deterministic fault-injection harness, driven by ``REPRO_FAULTS``.

A schedule is a ``;``-joined list of rules, one per *site*::

    REPRO_FAULTS="task_fail:1;task_delay:2,3:0.05;cache_corrupt:1"

Each rule is ``site:occurrences[:param]``:

- ``site`` — a named injection point (see :data:`SITES`);
- ``occurrences`` — which 1-based passes through the site fire: a
  single number (``3``), a comma list (``1,4``), an inclusive range
  (``2-5``), or ``*`` (every pass);
- ``param`` — optional number from 0 to :data:`MAX_PARAM`, site-specific
  (seconds for ``task_delay``).

A rule that could never fire (pass 0, a reversed range) or whose param
could not be honoured (nan, negative, or over a day), and a field that
is not a number, is a ``ValueError`` at parse time that names the rule
and the field, not a silent no-op or an error inside the faulted job.

Sites wired through the codebase:

======================  ================================================
``task_fail``           a pool job raises :class:`InjectedFault`
``task_delay``          a pool job sleeps ``param`` seconds first
``stage_fail``          a pipeline stage build raises before running
``cache_corrupt``       ArtifactCache truncates a disk envelope it just
                        wrote
``compile_fail``        the native-kernel compile aborts (soft fallback)
======================  ================================================

Determinism: each site keeps an occurrence counter, so the same
schedule against the same workload fires at exactly the same points.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, Optional, Tuple

from ..obs import metrics as obs_metrics
from .retry import InjectedFault

__all__ = [
    "SITES",
    "FaultRule",
    "FaultSchedule",
    "configure",
    "schedule",
    "active",
    "should_fire",
    "maybe_fail",
    "wrap_job",
    "corrupt_file",
    "snapshot",
]

ENV_VAR = "REPRO_FAULTS"

#: Largest rule param: a ``task_delay`` of one day.  ``time.sleep``
#: fails from about 9.2e9 seconds on, and no useful delay is that long.
MAX_PARAM = 86400.0

SITES = (
    "task_fail",
    "task_delay",
    "stage_fail",
    "cache_corrupt",
    "compile_fail",
)

_M_INJECTED = obs_metrics.REGISTRY.counter(
    "repro_resil_faults_injected_total",
    "Scheduled faults fired, by injection site",
    ("site",),
)


class FaultRule:
    """One parsed ``site:occurrences[:param]`` rule."""

    __slots__ = ("site", "all", "low", "high", "chosen", "param")

    def __init__(self, site: str, occurrences: str, param: Optional[float]):
        if site not in SITES:
            raise ValueError(
                f"unknown fault site {site!r} (known: {', '.join(SITES)})"
            )
        if param is not None and not 0.0 <= param <= MAX_PARAM:
            raise ValueError(
                f"rule for {site!r} has param {param!r} "
                f"(want a number from 0 to {MAX_PARAM:g})"
            )
        self.site = site
        self.param = param
        self.all = occurrences == "*"
        self.low = self.high = 0
        self.chosen: Tuple[int, ...] = ()
        if not self.all:
            try:
                if "-" in occurrences:
                    lo, _, hi = occurrences.partition("-")
                    self.low, self.high = int(lo), int(hi)
                else:
                    self.chosen = tuple(
                        int(part) for part in occurrences.split(",") if part
                    )
            except ValueError:
                raise ValueError(
                    f"rule for {site!r} has occurrences {occurrences!r} "
                    "(want *, N, N,M,... or N-M)"
                ) from None
            if self.low > self.high:
                raise ValueError(
                    f"rule for {site!r} has a reversed range "
                    f"{occurrences!r}"
                )
            if not self.chosen and "-" not in occurrences:
                raise ValueError(f"rule for {site!r} has no occurrences")
            first = min(self.chosen) if self.chosen else self.low
            if first < 1:
                raise ValueError(
                    f"rule for {site!r} names pass {first} "
                    "(passes count from 1)"
                )

    def fires_at(self, n: int) -> bool:
        if self.all:
            return True
        if self.chosen:
            return n in self.chosen
        return self.low <= n <= self.high

    @property
    def bounded(self) -> bool:
        """Whether the rule stops firing eventually (retries can heal)."""
        return not self.all


class FaultSchedule:
    """A set of rules plus per-site occurrence counters."""

    def __init__(self, rules: Dict[str, FaultRule], spec: str = "") -> None:
        self.rules = rules
        self.spec = spec
        self._counts: Dict[str, int] = {}
        self._fired = obs_metrics.Tally(**dict.fromkeys(SITES, _M_INJECTED))
        self._lock = threading.Lock()

    @classmethod
    def parse(cls, spec: str) -> "FaultSchedule":
        """The schedule of a ``;``-joined spec; a ``ValueError`` names
        the first rule that cannot be parsed or honoured."""
        rules: Dict[str, FaultRule] = {}
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            if len(parts) not in (2, 3):
                raise ValueError(
                    f"bad fault rule {chunk!r} "
                    "(want site:occurrences[:param])"
                )
            site, occurrences = parts[0].strip(), parts[1].strip()
            if site in rules:
                raise ValueError(
                    f"duplicate fault rule {chunk!r} for site {site!r}"
                )
            try:
                param = float(parts[2]) if len(parts) == 3 else None
            except ValueError:
                raise ValueError(
                    f"bad fault rule {chunk!r}: rule for {site!r} has param "
                    f"{parts[2]!r} (want a number from 0 to {MAX_PARAM:g})"
                ) from None
            try:
                rules[site] = FaultRule(site, occurrences, param)
            except ValueError as exc:
                raise ValueError(f"bad fault rule {chunk!r}: {exc}") from None
        return cls(rules, spec=spec)

    def should_fire(self, site: str) -> Optional[FaultRule]:
        """Count one pass through ``site``; the rule if this pass fires."""
        rule = self.rules.get(site)
        if rule is None:
            return None
        with self._lock:
            self._counts[site] = n = self._counts.get(site, 0) + 1
            if not rule.fires_at(n):
                return None
            self._fired.inc(site, site=site)
        return rule

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "spec": self.spec,
                "passes": dict(self._counts),
                "fired": {s: n for s, n in self._fired.items() if n},
            }


# ----------------------------------------------------------------------
# Process-global schedule (lazily parsed from $REPRO_FAULTS)
# ----------------------------------------------------------------------
_ACTIVE: Optional[FaultSchedule] = None
_LOADED = False
_GLOBAL_LOCK = threading.Lock()


def configure(spec: Optional[str]) -> Optional[FaultSchedule]:
    """Install a schedule (or ``None`` to disable injection)."""
    global _ACTIVE, _LOADED
    with _GLOBAL_LOCK:
        _ACTIVE = FaultSchedule.parse(spec) if spec else None
        _LOADED = True
        return _ACTIVE


def schedule() -> Optional[FaultSchedule]:
    global _ACTIVE, _LOADED
    if not _LOADED:
        with _GLOBAL_LOCK:
            if not _LOADED:
                spec = os.environ.get(ENV_VAR, "").strip()
                _ACTIVE = FaultSchedule.parse(spec) if spec else None
                _LOADED = True
    return _ACTIVE


def active() -> bool:
    return schedule() is not None


def should_fire(site: str) -> Optional[FaultRule]:
    sched = schedule()
    return sched.should_fire(site) if sched is not None else None


def maybe_fail(site: str, detail: str = "") -> None:
    """Raise :class:`InjectedFault` if ``site`` is scheduled to fire now."""
    if should_fire(site) is not None:
        raise InjectedFault(site, detail)


def snapshot() -> Optional[dict]:
    sched = _ACTIVE if _LOADED else schedule()
    return sched.snapshot() if sched is not None else None


# ----------------------------------------------------------------------
# Pool-job wrapping (task_fail / task_delay)
# ----------------------------------------------------------------------
def wrap_job(fn, args: tuple) -> Tuple[object, tuple]:
    """Possibly wrap a pool job so a scheduled task fault fires inside it.

    The decision (does this submission fire?) is taken when the job is
    submitted, so occurrence counting is deterministic regardless of
    which pool thread runs the job.
    """
    sched = schedule()
    if sched is None:
        return fn, args
    fail = sched.should_fire("task_fail") is not None
    delay_rule = sched.should_fire("task_delay")
    if not fail and delay_rule is None:
        return fn, args
    pause = 0.0
    if delay_rule is not None:
        pause = delay_rule.param if delay_rule.param is not None else 0.05
    return _faulted_job, (fn, args, fail, pause)


def _faulted_job(fn, args: tuple, fail: bool, pause: float):
    if pause > 0.0:
        time.sleep(pause)
    if fail:
        raise InjectedFault("task_fail", "scheduled pool-task failure")
    return fn(*args)


# ----------------------------------------------------------------------
# File corruption (cache envelopes)
# ----------------------------------------------------------------------
def corrupt_file(path: os.PathLike) -> bool:
    """Drop the back half of ``path``, as a writer killed mid-write
    would; False when the file is missing or empty."""
    try:
        size = os.path.getsize(path)
    except OSError:
        return False
    if size <= 0:
        return False
    with open(path, "r+b") as handle:
        handle.truncate(max(1, size // 2))
    return True
