"""Retry/backoff, deadlines, circuit breaker, and admission control."""

import pytest

from repro.resil.retry import (
    AdmissionGate,
    CircuitBreaker,
    CircuitOpen,
    Deadline,
    DeadlineExceeded,
    InjectedFault,
    RetryPolicy,
    TransientFault,
    retry_call,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestRetryPolicy:
    def test_exponential_growth_capped(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        assert [policy.delay(n) for n in (1, 2, 3, 4)] == [
            0.1, 0.2, 0.4, 0.5,
        ]

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(
            base_delay=1.0, max_delay=1.0, jitter=0.5, seed=7
        )
        for _ in range(100):
            assert 0.5 <= policy.delay(1) <= 1.0

    def test_seeded_jitter_reproducible(self):
        a = [RetryPolicy(seed=3).delay(n) for n in range(1, 6)]
        b = [RetryPolicy(seed=3).delay(n) for n in range(1, 6)]
        assert a == b

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestRetryCall:
    def test_retries_transient_then_succeeds(self):
        naps = []
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise TransientFault("worker died")
            return "ok"

        result = retry_call(
            flaky,
            policy=RetryPolicy(max_attempts=4, base_delay=0.01, jitter=0.0),
            sleep=naps.append,
        )
        assert result == "ok"
        assert len(attempts) == 3
        assert naps == [0.01, 0.02]

    def test_deterministic_errors_not_retried(self):
        attempts = []

        def buggy():
            attempts.append(1)
            raise RuntimeError("a plain bug")

        with pytest.raises(RuntimeError):
            retry_call(buggy, sleep=lambda _: None)
        assert len(attempts) == 1

    def test_budget_exhaustion_propagates_original(self):
        def always():
            raise InjectedFault("task_fail")

        with pytest.raises(InjectedFault):
            retry_call(
                always,
                policy=RetryPolicy(max_attempts=3, base_delay=0.0),
                sleep=lambda _: None,
            )

    def test_deadline_cuts_retries_short(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)

        def fail_and_burn():
            clock.advance(0.6)
            raise TransientFault("slow failure")

        with pytest.raises(DeadlineExceeded):
            retry_call(
                fail_and_burn,
                policy=RetryPolicy(max_attempts=100, base_delay=0.0),
                deadline=deadline,
                sleep=lambda _: None,
            )


class TestDeadline:
    def test_remaining_and_check(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == 2.0
        deadline.check()
        clock.advance(2.5)
        assert deadline.expired
        assert deadline.remaining() == 0.0
        with pytest.raises(DeadlineExceeded, match="budget"):
            deadline.check("tile")


class TestCircuitBreaker:
    def test_opens_after_threshold_and_probes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, cooldown=10.0, clock=clock
        )
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert 0.0 < breaker.retry_after() <= 10.0
        # Cooldown elapses: exactly one half-open probe gets through.
        clock.advance(10.0)
        assert breaker.allow()
        assert breaker.state == "half_open"
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=5.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()  # probe
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.snapshot()["failures"] == 1

    def test_circuit_open_error_carries_hint(self):
        exc = CircuitOpen("toy/kcore", 12.34)
        assert exc.key == "toy/kcore"
        assert exc.retry_after == 12.34


class TestAdmissionGate:
    def test_interactive_reserve(self):
        gate = AdmissionGate(4)  # reserve 1 -> bulk cap 3
        assert gate.bulk_limit == 3
        assert all(gate.try_acquire() for _ in range(3))
        assert not gate.try_acquire()            # bulk saturated
        assert gate.try_acquire(interactive=True)  # reserve still open
        assert not gate.try_acquire(interactive=True)
        assert gate.shed == 2
        gate.release()              # 3 admitted: still at the bulk cap
        assert not gate.try_acquire()
        assert gate.try_acquire(interactive=True)
        gate.release()
        gate.release()              # 2 admitted: bulk fits again
        assert gate.try_acquire()

    def test_limit_one_still_admits(self):
        gate = AdmissionGate(1)
        assert gate.bulk_limit == 1
        assert gate.try_acquire()
        gate.release()
        gate.release()  # over-release is harmless
        assert gate.snapshot()["admitted"] == 0

    def test_rejects_bad_limit(self):
        with pytest.raises(ValueError):
            AdmissionGate(0)
