"""Fake-clock tests for admission primitives and backoff scheduling.

ISSUE 9 satellite 3: no ``time.sleep`` anywhere in here — the token
bucket and circuit breaker run on an injected fake clock, and the
retry backoff's seeded jitter is asserted bit-for-bit reproducible.
"""

from __future__ import annotations

import pytest

from repro.resil.supervisor import backoff_delay
from repro.serve.ratelimit import CircuitBreaker, TokenBucket


class FakeClock:
    """A monotonic clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_starve(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=clock)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(0.5)  # 1 token back at 2/s
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_never_exceeds_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=2.0, clock=clock)
        clock.advance(100.0)
        assert bucket.tokens == 2.0

    def test_retry_after_quotes_the_deficit(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=clock)
        assert bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(0.5)
        clock.advance(0.25)
        assert bucket.retry_after() == pytest.approx(0.25)

    def test_zero_rate_disables(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=0.0, burst=1.0, clock=clock)
        assert all(bucket.try_acquire() for _ in range(100))
        assert bucket.retry_after() == 0.0

    def test_rejects_nonpositive_burst(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=3, cooldown=10.0, clock=clock)
        assert not breaker.record_failure("k")
        assert not breaker.record_failure("k")
        assert breaker.record_failure("k")
        assert not breaker.check("k").allowed
        assert breaker.open_keys() == ["k"]
        assert breaker.tripped_total == 1

    def test_success_resets_the_count(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=2, cooldown=10.0, clock=clock)
        breaker.record_failure("k")
        breaker.record_success("k")
        assert not breaker.record_failure("k")
        assert breaker.check("k").allowed

    def test_cooldown_then_single_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=10.0, clock=clock)
        breaker.record_failure("k")
        rejected = breaker.check("k")
        assert not rejected.allowed
        assert rejected.retry_after == pytest.approx(10.0)
        clock.advance(10.0)
        probe = breaker.check("k")
        assert probe.allowed and probe.probe
        # Only one probe is admitted while it is in flight.
        assert not breaker.check("k").allowed

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure("k")
        clock.advance(5.0)
        assert breaker.check("k").probe
        breaker.record_success("k")
        decision = breaker.check("k")
        assert decision.allowed and not decision.probe

    def test_probe_failure_reopens_for_full_cooldown(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure("k")
        clock.advance(5.0)
        assert breaker.check("k").probe
        breaker.record_failure("k")
        rejected = breaker.check("k")
        assert not rejected.allowed
        assert rejected.retry_after == pytest.approx(5.0)

    def test_keys_are_independent(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, cooldown=5.0, clock=clock)
        breaker.record_failure("poison")
        assert breaker.check("healthy").allowed
        assert not breaker.check("poison").allowed

    def test_zero_threshold_disables(self):
        breaker = CircuitBreaker(threshold=0, cooldown=5.0, clock=FakeClock())
        for _ in range(10):
            breaker.record_failure("k")
        assert breaker.check("k").allowed

    def test_key_table_is_bounded(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            threshold=1, cooldown=5.0, clock=clock, max_keys=4
        )
        for index in range(100):
            breaker.record_failure(f"k{index}")
        assert len(breaker._entries) == 4


class TestBackoffScheduling:
    """The retry backoff both supervisor executors and serve share."""

    def test_seeded_jitter_is_reproducible(self):
        first = [backoff_delay(0.25, "APP|hpe|0.75", a) for a in (1, 2, 3)]
        second = [backoff_delay(0.25, "APP|hpe|0.75", a) for a in (1, 2, 3)]
        assert first == second

    def test_exponential_envelope_with_jitter(self):
        for attempt in (1, 2, 3, 4):
            delay = backoff_delay(0.5, "key", attempt)
            base = 0.5 * (2 ** (attempt - 1))
            assert base <= delay < 2 * base

    def test_different_keys_decorrelate(self):
        delays = {backoff_delay(0.25, f"key{i}", 1) for i in range(16)}
        assert len(delays) > 8

    def test_zero_base_means_no_delay(self):
        assert backoff_delay(0.0, "key", 3) == 0.0
