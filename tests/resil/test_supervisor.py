"""Supervised worker pool (`repro.resil.supervisor`)."""

from __future__ import annotations

import os
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.resil.chaos import CHAOS_CRASH_EXIT, ChaosSpec
from repro.resil.supervisor import (
    STDERR_TAIL_BYTES,
    SupervisorInterrupted,
    SupervisorStats,
    WorkerSupervisor,
    _AlarmDeadline,
    _DeadlineExpired,
    backoff_delay,
    compact_tail,
)

# Worker functions live at module level so every start method can
# reach them; payloads are plain picklable tuples.


def _square(payload):
    return payload * payload


def _crash_on_seven(payload):
    if payload == 7:
        os._exit(CHAOS_CRASH_EXIT)
    return payload


def _hang_on_seven(payload):
    if payload == 7:
        time.sleep(3600)
    return payload


def _raise_with_stderr(payload):
    print("boom to stderr", file=sys.stderr, flush=True)
    raise ValueError(f"bad payload {payload}")


def _close_pipe_and_linger(payload):
    """Close every inherited fd (including the result pipe) but stay alive.

    The parent sees EOF on the result pipe while the process sentinel
    stays quiet — the pathological state that used to busy-spin the
    supervision loop until the per-job deadline.
    """
    os.closerange(3, 256)
    time.sleep(3600)


def _nap(payload):
    """Sleep ``payload`` seconds, then answer it."""
    time.sleep(payload)
    return payload


def _tear(digest):
    """Did the active chaos spec tear a cache write of ``digest``?"""
    from repro.resil import chaos as chaos_module

    framed = b"framed-bytes" * 8
    return chaos_module.maybe_corrupt(digest, framed) != framed


def _fail_once(payload):
    """Fails the first time per sentinel path, succeeds after."""
    sentinel = Path(payload)
    if not sentinel.exists():
        sentinel.write_text("seen")
        raise RuntimeError("first attempt always fails")
    return "recovered"


@pytest.fixture
def pool_factory():
    """Start long-lived pools; every one is closed at teardown."""
    pools = []

    def make(worker_fn, jobs=2, **kwargs):
        kwargs.setdefault("timeout", 30.0)
        kwargs.setdefault("backoff", 0.0)
        pool = WorkerSupervisor(worker_fn, jobs, **kwargs).start()
        pools.append(pool)
        return pool

    yield make
    for pool in pools:
        pool.close()


class TestHappyPath:
    def test_all_jobs_complete(self, pool_factory):
        supervisor = pool_factory(_square, 3)
        stats = SupervisorStats()
        items = [(f"job-{i}", i) for i in range(8)]
        outcomes = supervisor.run(items, stats=stats)
        assert len(outcomes) == 8
        assert all(outcome.ok for outcome in outcomes.values())
        assert {k: o.result for k, o in outcomes.items()} == {
            f"job-{i}": i * i for i in range(8)
        }
        assert stats.completed == 8
        assert stats.retries == 0

    def test_empty_items(self, pool_factory):
        supervisor = pool_factory(_square)
        assert supervisor.run([]) == {}

    def test_on_outcome_fires_per_job(self, pool_factory):
        seen = []
        supervisor = pool_factory(_square)
        supervisor.run(
            [(f"job-{i}", i) for i in range(4)],
            on_outcome=lambda outcome: seen.append(outcome.key),
        )
        assert sorted(seen) == [f"job-{i}" for i in range(4)]


class TestFailureModes:
    def test_crash_isolated_and_reported(self, pool_factory):
        supervisor = pool_factory(_crash_on_seven, retries=1)
        stats = SupervisorStats()
        outcomes = supervisor.run([("ok", 1), ("dead", 7)], stats=stats)
        assert outcomes["ok"].ok and outcomes["ok"].result == 1
        failure = outcomes["dead"].failure
        assert failure is not None
        assert failure.error_type == "WorkerCrash"
        assert str(CHAOS_CRASH_EXIT) in failure.message
        assert failure.attempts == 2
        assert stats.crashes == 2
        assert stats.exhausted == 1

    def test_timeout_kills_and_reports(self, pool_factory):
        supervisor = pool_factory(_hang_on_seven, timeout=1.0, retries=0)
        stats = SupervisorStats()
        started = time.monotonic()
        outcomes = supervisor.run([("ok", 1), ("hung", 7)], stats=stats)
        elapsed = time.monotonic() - started
        assert outcomes["ok"].ok
        failure = outcomes["hung"].failure
        assert failure is not None and failure.error_type == "JobTimeout"
        assert stats.timeouts == 1
        # The hang was killed at the deadline, not waited out.
        assert elapsed < 30.0

    def test_timeout_kill_ignores_inherited_sigterm_handler(
        self, pool_factory
    ):
        # Forked workers inherit the parent's SIGTERM handler (the
        # runner installs one); the kill at the deadline must still
        # take effect at once, not after terminate()'s 5 s fallback.
        import signal

        def _raise(_signum, _frame):
            raise RuntimeError("parent SIGTERM handler ran in a worker")

        previous = signal.signal(signal.SIGTERM, _raise)
        try:
            # Started under the handler, so the workers inherit it.
            supervisor = pool_factory(_hang_on_seven, timeout=0.5, retries=0)
            started = time.monotonic()
            outcomes = supervisor.run([("hung", 7)])
            elapsed = time.monotonic() - started
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert outcomes["hung"].failure.error_type == "JobTimeout"
        assert elapsed < 4.0

    def test_pipe_eof_with_live_worker_is_immediate_crash(
        self, pool_factory
    ):
        # jobs=2: only a worker process has a result pipe (and stderr
        # capture) to lose; jobs=1 would run the job in this process.
        supervisor = pool_factory(_close_pipe_and_linger, retries=0)
        stats = SupervisorStats()
        started = time.monotonic()
        outcomes = supervisor.run([("job", 0)], stats=stats)
        elapsed = time.monotonic() - started
        failure = outcomes["job"].failure
        assert failure is not None
        assert failure.error_type == "WorkerCrash"
        assert "pipe closed" in failure.message
        assert stats.crashes == 1
        # Handled the moment the pipe died — not at the 30s deadline.
        assert elapsed < 15.0
        supervisor = pool_factory(_raise_with_stderr, retries=2)
        stats = SupervisorStats()
        outcomes = supervisor.run([("job", 0)], stats=stats)
        failure = outcomes["job"].failure
        assert failure is not None
        assert failure.error_type == "ValueError"
        assert "bad payload 0" in failure.message
        assert failure.attempts == 3
        assert "boom to stderr" in failure.stderr_tail
        assert stats.transient_errors == 3

    def test_retry_then_succeed(self, tmp_path):
        sentinel = tmp_path / "sentinel"
        supervisor = WorkerSupervisor(
            _fail_once, 1, timeout=30.0, retries=2, backoff=0.0
        )
        stats = SupervisorStats()
        outcomes = supervisor.run([("job", str(sentinel))], stats=stats)
        outcome = outcomes["job"]
        assert outcome.ok and outcome.result == "recovered"
        assert outcome.attempts == 2
        assert stats.retries == 1
        assert stats.exhausted == 0

    def test_failure_render_mentions_key_and_stderr(self):
        supervisor = WorkerSupervisor(
            _raise_with_stderr, 1, timeout=30.0, retries=0, backoff=0.0
        )
        outcomes = supervisor.run([("job", 0)])
        text = outcomes["job"].failure.render()
        assert "job" in text and "ValueError" in text and "stderr" in text


class TestChaosIntegration:
    def test_flaky_exhaustion(self):
        supervisor = WorkerSupervisor(
            _square, 1, timeout=30.0, retries=1, backoff=0.0,
        )
        outcomes = supervisor.run(
            [("job", 2)], chaos=ChaosSpec.parse("flaky=1.0,seed=3"),
        )
        failure = outcomes["job"].failure
        assert failure is not None
        assert failure.error_type == "ChaosTransientError"
        assert failure.attempts == 2

    def test_sigterm_after_n_completions(self):
        supervisor = WorkerSupervisor(
            _square, 1, timeout=30.0, retries=0, backoff=0.0,
        )
        delivered = []
        with pytest.raises(SupervisorInterrupted):
            supervisor.run(
                [(f"job-{i}", i) for i in range(5)],
                on_outcome=lambda outcome: delivered.append(outcome.key),
                chaos=ChaosSpec.parse("sigterm=2,seed=3"),
            )
        # The triggering outcome is delivered before the interrupt.
        assert len(delivered) == 2


def _in_thread(target):
    """Run ``target`` on a thread; returns (thread, box) where ``box``
    ends up holding ``("ok", value)`` or ``("error", exception)``."""
    box = []

    def body():
        try:
            box.append(("ok", target()))
        except Exception as exc:  # noqa: BLE001 — asserted by the test
            box.append(("error", exc))

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread, box


def _join(thread, box, timeout=60.0):
    thread.join(timeout=timeout)
    assert not thread.is_alive(), "run() never returned"
    return box[0]


def _wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestLongLivedPool:
    def test_concurrent_runs_keep_their_own_stats_and_chaos(self, pool_factory):
        pool = pool_factory(_square, retries=1)
        stats_a, stats_b = SupervisorStats(), SupervisorStats()
        a = _in_thread(lambda: pool.run(
            [(f"a-{i}", i) for i in range(4)],
            chaos=ChaosSpec.parse("flaky=1.0,seed=3"), stats=stats_a,
        ))
        b = _in_thread(lambda: pool.run(
            [(f"b-{i}", i) for i in range(6)], stats=stats_b,
        ))
        tag_a, outcomes_a = _join(*a)
        tag_b, outcomes_b = _join(*b)
        assert (tag_a, tag_b) == ("ok", "ok")
        assert sorted(outcomes_a) == [f"a-{i}" for i in range(4)]
        assert all(
            o.failure.error_type == "ChaosTransientError"
            for o in outcomes_a.values()
        )
        assert {k: o.result for k, o in outcomes_b.items()} == {
            f"b-{i}": i * i for i in range(6)
        }
        assert (stats_a.completed, stats_a.retries, stats_a.exhausted,
                stats_a.transient_errors) == (4, 4, 4, 8)
        assert (stats_b.completed, stats_b.retries, stats_b.exhausted,
                stats_b.transient_errors) == (6, 0, 0, 0)
        assert pool.pool_stats()["spawned"] == 2

    def test_sigterm_budget_interrupts_only_its_own_run(self, pool_factory):
        pool = pool_factory(_nap, retries=0)
        delivered = []
        a = _in_thread(lambda: pool.run(
            [(f"a-{i}", 0.02) for i in range(8)],
            on_outcome=lambda outcome: delivered.append(outcome.key),
            chaos=ChaosSpec.parse("sigterm=2,seed=3"),
        ))
        b = _in_thread(lambda: pool.run([(f"b-{i}", 0.02) for i in range(8)]))
        tag_a, error = _join(*a)
        tag_b, outcomes_b = _join(*b)
        assert tag_a == "error" and isinstance(error, SupervisorInterrupted)
        assert len(delivered) == 2
        assert tag_b == "ok" and len(outcomes_b) == 8
        assert all(outcome.ok for outcome in outcomes_b.values())
        # The pool outlives the interrupted run.
        assert pool.run([("c", 0.0)])["c"].ok

    def test_a_free_worker_prefers_the_run_with_fewest_in_flight(
        self, pool_factory
    ):
        pool = pool_factory(_nap)
        finished = []
        lock = threading.Lock()

        def record(outcome):
            with lock:
                finished.append(outcome.key)

        big = _in_thread(lambda: pool.run(
            [(f"big-{i}", 0.15) for i in range(12)], on_outcome=record,
        ))
        _wait_for(lambda: pool.pool_stats()["busy"] == 2)
        pool.run([("small", 0.0)], on_outcome=record)
        with lock:
            position = finished.index("small")
        # A first-come pool would queue the single job behind ten big
        # ones.
        assert position <= 4, finished
        assert _join(*big)[0] == "ok"

    def test_close_interrupts_a_waiting_run_and_stops_workers(
        self, pool_factory
    ):
        pool = pool_factory(_hang_on_seven, retries=0)
        processes = [worker.process for worker in pool._workers]
        waiting = _in_thread(lambda: pool.run([("hung", 7)]))
        _wait_for(lambda: pool.pool_stats()["busy"] == 1)
        started = time.monotonic()
        pool.close()
        tag, error = _join(*waiting, timeout=10.0)
        assert tag == "error" and isinstance(error, SupervisorInterrupted)
        assert time.monotonic() - started < 10.0
        assert not any(process.is_alive() for process in processes)
        with pytest.raises(SupervisorInterrupted):
            pool.run([("late", 1)])
        pool.close()  # idempotent

    def test_crash_costs_one_respawn(self, pool_factory):
        pool = pool_factory(_crash_on_seven, retries=0)
        outcomes = pool.run([("ok", 1), ("dead", 7)])
        assert outcomes["dead"].failure.error_type == "WorkerCrash"
        assert pool.pool_stats() == {
            "workers": 2, "spawned": 3, "busy": 0, "queued": 0,
        }

    def test_a_worker_tears_each_digest_once_across_specs(self, pool_factory):
        # Both idle workers take one job of each run, so each worker
        # sees the digest under two different specs.
        pool = pool_factory(_tear)
        first = pool.run(
            [("a", "digest"), ("b", "digest")],
            chaos=ChaosSpec.parse("torn=1.0,seed=5"),
        )
        second = pool.run(
            [("c", "digest"), ("d", "digest")],
            chaos=ChaosSpec.parse("torn=1.0,seed=6"),
        )
        assert [o.result for o in first.values()] == [True, True]
        assert [o.result for o in second.values()] == [False, False]

    def test_many_threads_share_one_pool(self, pool_factory):
        # More workers than cores and a short switch interval: a lost
        # update to a run's in-flight count or job list would strand a
        # caller (the join times out) or mix outcomes between runs.
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool = pool_factory(_square, jobs=max(3, (os.cpu_count() or 1) + 1))
            calls = [
                _in_thread(lambda n=n: pool.run(
                    [(f"{n}-{i}", n * 100 + i) for i in range(10)]
                ))
                for n in range(8)
            ]
            for n, call in enumerate(calls):
                tag, outcomes = _join(*call)
                assert tag == "ok"
                assert {k: o.result for k, o in outcomes.items()} == {
                    f"{n}-{i}": (n * 100 + i) ** 2 for i in range(10)
                }
        finally:
            sys.setswitchinterval(previous)
        stats = pool.pool_stats()
        assert (stats["busy"], stats["queued"]) == (0, 0)
        assert stats["spawned"] == pool.jobs

    def test_start_needs_two_workers_and_starts_once(self, pool_factory):
        with pytest.raises(ValueError):
            WorkerSupervisor(_square, 1).start()
        pool = pool_factory(_square)
        with pytest.raises(RuntimeError):
            pool.start()

    def test_run_needs_a_started_pool(self):
        # jobs >= 2 has one lifetime: the pool is started first.
        with pytest.raises(RuntimeError):
            WorkerSupervisor(_square, 2).run([("job", 1)])


class TestKnobs:
    def test_backoff_delay_deterministic(self):
        assert backoff_delay(0.25, "k", 1) == backoff_delay(0.25, "k", 1)
        assert backoff_delay(0.25, "k", 1) != backoff_delay(0.25, "other", 1)

    def test_backoff_delay_grows_exponentially(self):
        first = backoff_delay(0.25, "k", 1)
        third = backoff_delay(0.25, "k", 3)
        # Base step quadruples attempt 1 → 3; jitter is within [1, 2).
        assert 0.25 <= first < 0.5
        assert 1.0 <= third < 2.0

    def test_backoff_zero_base(self):
        assert backoff_delay(0.0, "k", 5) == 0.0

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            WorkerSupervisor(_square, 0)


class TestAlarmDeadline:
    def test_interrupts_a_runaway_body(self):
        with pytest.raises(_DeadlineExpired):
            with _AlarmDeadline(0.2):
                time.sleep(5.0)

    def test_fast_body_unaffected(self):
        with _AlarmDeadline(5.0):
            value = sum(range(1000))
        assert value == 499500

    def test_zero_timeout_never_enforces(self):
        deadline = _AlarmDeadline(0.0)
        assert not deadline.enforcing
        with deadline:
            time.sleep(0.01)

    def test_timer_is_cancelled_on_exit(self):
        import signal

        with _AlarmDeadline(0.2):
            pass
        # Were the itimer still armed, this sleep would be interrupted.
        time.sleep(0.3)
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class TestCompactTail:
    def test_consecutive_duplicates_collapse(self):
        text = "warn: retry\n" * 5 + "error: gone\n"
        compacted = compact_tail(text)
        assert compacted.splitlines() == [
            "warn: retry", "  [repeated x5]", "error: gone",
        ]

    def test_non_consecutive_lines_kept(self):
        text = "a\nb\na\nb\n"
        assert compact_tail(text).splitlines() == ["a", "b", "a", "b"]

    def test_byte_bound_keeps_the_tail(self):
        lines = [f"line {i:06d}" for i in range(10_000)]
        compacted = compact_tail("\n".join(lines), limit=256)
        assert len(compacted.encode("utf-8")) <= 256
        assert compacted.splitlines()[-1] == "line 009999"

    def test_default_limit_is_the_settings_default(self):
        noisy = "x" * (STDERR_TAIL_BYTES * 3)
        assert len(compact_tail(noisy).encode("utf-8")) <= STDERR_TAIL_BYTES

    def test_multibyte_never_torn(self):
        text = "é" * 10_000
        compacted = compact_tail(text, limit=64)
        compacted.encode("utf-8")  # round-trips cleanly
        assert len(compacted.encode("utf-8")) <= 64

    def test_empty_and_whitespace(self):
        assert compact_tail("") == ""
        # Blank lines compact like any other repeated line.
        assert compact_tail("\n\n\n").splitlines() == ["", "  [repeated x3]"]

    def test_repeat_marker_counts_correctly(self):
        compacted = compact_tail("same\nsame\n")
        assert compacted.splitlines() == ["same", "  [repeated x2]"]
