"""repro.resil — resilience primitives and deterministic fault injection.

Two halves:

- :mod:`repro.resil.retry` — retry with exponential backoff + jitter,
  per-task deadlines, a circuit breaker for repeatedly-failing build
  keys, and an admission gate with an interactive-priority reserve.
- :mod:`repro.resil.faults` — a deterministic fault-injection harness
  driven by ``REPRO_FAULTS`` / ``--faults``: delay or fail pool tasks
  and pipeline stages, corrupt disk-cache envelopes, and fail native
  compiles, all on an exact occurrence schedule so every failure
  path is testable and reproducible.

All retry/shed/breaker/fault events emit ``repro_resil_*`` obs counters.
"""

from .retry import (
    AdmissionGate,
    CircuitBreaker,
    CircuitOpen,
    Deadline,
    DeadlineExceeded,
    InjectedFault,
    RetryPolicy,
    Saturated,
    TransientFault,
    retry_call,
)
from .faults import FaultRule, FaultSchedule

__all__ = [
    "AdmissionGate",
    "CircuitBreaker",
    "CircuitOpen",
    "Deadline",
    "DeadlineExceeded",
    "FaultRule",
    "FaultSchedule",
    "InjectedFault",
    "RetryPolicy",
    "Saturated",
    "TransientFault",
    "retry_call",
]
