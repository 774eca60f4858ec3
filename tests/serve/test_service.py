"""EvaluationService core: admission → dedupe → dispatch → degrade."""

from __future__ import annotations

import threading
import time
from types import SimpleNamespace

import pytest

from repro.experiments.runner import RunKey
from repro.resil import journal as resil_journal
from repro.resil.settings import ResilSettings
from repro.resil.supervisor import JobFailure
from repro.serve.service import EvaluationService, summarize_matrix

CELL_A = {"workload": "BFS", "policy": "lru", "rate": 0.5, "scale": 0.25}
CELL_B = {"workload": "STN", "policy": "lru", "rate": 0.5, "scale": 0.25}
CELL_C = {"workload": "HOT", "policy": "lru", "rate": 0.5, "scale": 0.25}


def fake_matrix(spec, *, failures=()):
    """A ResultMatrix-shaped stub for one spec's cells."""
    matrix = SimpleNamespace(
        run_id=spec.run_id(), results={}, failures={}, _order=[],
    )
    for cell in spec.cells():
        key = RunKey(app=cell.workload, policy=cell.policy, rate=cell.rate)
        matrix._order.append(key)
        if len(matrix.failures) < len(failures):
            matrix.failures[key] = failures[len(matrix.failures)]
        else:
            matrix.results[key] = SimpleNamespace(
                ipc=1.0, cycles=100, instructions=100, faults=5,
                evictions=2, capacity_pages=8, footprint_pages=16,
            )
    return matrix


class StubRunner:
    """Injectable run_scenario stand-in with call counting and gating."""

    def __init__(self, delay=0.0, gate=None, failures=(), error=None):
        self.calls = 0
        self.delay = delay
        self.gate = gate
        self.failures = tuple(failures)
        self.error = error
        self.lock = threading.Lock()

    def __call__(self, spec, **kwargs):
        with self.lock:
            self.calls += 1
        if self.gate is not None:
            assert self.gate.wait(timeout=30.0), "stub gate never opened"
        if self.delay:
            time.sleep(self.delay)
        if self.error is not None:
            raise self.error
        return fake_matrix(spec, failures=self.failures)


def make_service(runner, clock=None, **overrides):
    defaults = dict(
        rate_limit=0.0, max_queue=8, max_concurrent=2,
        request_deadline=0.0, breaker_threshold=0, drain_grace=0.2,
    )
    defaults.update(overrides)
    return EvaluationService(
        ResilSettings(**defaults), runner=runner, clock=clock
    )


def wait_terminal(service, job_id, timeout=30.0):
    view = service.snapshot(job_id, wait=timeout)
    assert view is not None, f"job {job_id} vanished"
    assert view["status"] not in ("queued", "running"), view
    return view


class TestSingleFlight:
    def test_identical_concurrent_submissions_compute_once(self):
        gate = threading.Event()
        runner = StubRunner(gate=gate)
        service = make_service(runner)
        try:
            statuses = [
                service.submit({"cell": CELL_A}) for _ in range(6)
            ]
            assert all(code == 202 for code, _ in statuses)
            deduped = [body["deduped"] for _, body in statuses]
            assert deduped == [False] + [True] * 5
            job_ids = {body["job_id"] for _, body in statuses}
            assert len(job_ids) == 1
            gate.set()
            view = wait_terminal(service, job_ids.pop())
            assert view["status"] == "done"
            assert view["dedupe_hits"] == 5
            assert runner.calls == 1
            assert service.metrics.counter("serve.deduped") == 5
        finally:
            gate.set()
            service.drain(grace=5.0)

    def test_different_chaos_is_a_different_flight(self):
        gate = threading.Event()
        runner = StubRunner(gate=gate)
        service = make_service(runner)
        try:
            _, first = service.submit({"cell": CELL_A})
            _, second = service.submit(
                {"cell": CELL_A, "chaos": "seed=1,crash=0.5"}
            )
            assert not second["deduped"]
            assert first["job_id"] != second["job_id"]
        finally:
            gate.set()
            service.drain(grace=5.0)

    def test_completed_jobs_do_not_capture_new_submissions(self):
        runner = StubRunner()
        service = make_service(runner)
        try:
            _, first = service.submit({"cell": CELL_A})
            wait_terminal(service, first["job_id"])
            _, second = service.submit({"cell": CELL_A})
            assert not second["deduped"]
            assert second["job_id"] != first["job_id"]
        finally:
            service.drain(grace=5.0)


class TestAdmission:
    def test_queue_full_sheds_with_retry_after(self):
        gate = threading.Event()
        runner = StubRunner(gate=gate)
        service = make_service(runner, max_concurrent=1, max_queue=1)
        try:
            assert service.submit({"cell": CELL_A})[0] == 202
            assert service.submit({"cell": CELL_B})[0] == 202
            code, body = service.submit({"cell": CELL_C})
            assert code == 503
            assert body["error"] == "queue_full"
            assert body["retry_after"] > 0
            assert service.metrics.counter("serve.shed.queue") == 1
        finally:
            gate.set()
            service.drain(grace=5.0)

    def test_rate_limit_answers_429(self):
        clock = lambda: 1000.0  # frozen: the bucket never refills
        runner = StubRunner(gate=threading.Event())  # never completes
        service = make_service(
            runner, clock=clock, rate_limit=1.0, rate_burst=2.0,
            max_queue=100, max_concurrent=1,
        )
        try:
            assert service.submit({"cell": CELL_A})[0] == 202
            assert service.submit({"cell": CELL_B})[0] == 202
            code, body = service.submit({"cell": CELL_C})
            assert code == 429
            assert body["error"] == "rate_limited"
            assert body["retry_after"] == pytest.approx(1.0)
            assert service.metrics.counter("serve.shed.rate") == 1
        finally:
            runner.gate.set()
            service.drain(grace=5.0)

    def test_malformed_payloads_never_raise(self):
        service = make_service(StubRunner())
        try:
            for payload in (
                None,
                [],
                {},
                {"scenario": "smoke", "spec": {"policies": []}},
                {"scenario": 42},
                {"spec": {"policies": ["lru"]}},  # missing rates/apps
                {"cell": {"workload": "BFS"}},  # missing policy/rate
                {"cell": CELL_A, "deadline": -1},
                {"cell": CELL_A, "chaos": "crash=not-a-number"},
                {"scenario": "no-such-scenario"},
            ):
                code, body = service.submit(payload)
                assert code == 400, (payload, body)
                assert body["error"] and body["message"]
        finally:
            service.drain(grace=5.0)

    def test_draining_refuses_new_work(self):
        service = make_service(StubRunner())
        service.drain(grace=0.1)
        code, body = service.submit({"cell": CELL_A})
        assert code == 503
        assert body["error"] == "draining"


class TestDegradation:
    def test_degraded_cells_surface_in_the_result(self):
        failure = JobFailure(
            key="BFS|lru|0.5", error_type="WorkerCrash",
            message="exit 73", attempts=2, elapsed=0.1,
            stderr_tail="boom",
        )
        service = make_service(StubRunner(failures=(failure,)))
        try:
            _, body = service.submit({"cell": CELL_A})
            view = wait_terminal(service, body["job_id"])
            assert view["status"] == "done"
            result = view["result"]
            assert result["degraded"] is True
            assert result["cells_degraded"] == 1
            cell = result["cells"][0]
            assert cell["status"] == "DEGRADED"
            assert cell["failure"]["error_type"] == "WorkerCrash"
            assert cell["failure"]["stderr_tail"] == "boom"
        finally:
            service.drain(grace=5.0)

    def test_runner_exception_becomes_structured_error(self):
        service = make_service(StubRunner(error=RuntimeError("kaput")))
        try:
            _, body = service.submit({"cell": CELL_A})
            view = wait_terminal(service, body["job_id"])
            assert view["status"] == "error"
            assert view["error"]["error"] == "RuntimeError"
            assert view["error"]["message"] == "kaput"
        finally:
            service.drain(grace=5.0)

    def test_breaker_quarantines_poison_spec(self):
        failure = JobFailure(
            key="BFS|lru|0.5", error_type="WorkerCrash",
            message="exit 73", attempts=2, elapsed=0.1,
        )
        service = make_service(
            StubRunner(failures=(failure,)),
            breaker_threshold=2, breaker_cooldown=60.0,
        )
        try:
            for _ in range(2):
                _, body = service.submit({"cell": CELL_A})
                wait_terminal(service, body["job_id"])
            code, body = service.submit({"cell": CELL_A})
            assert code == 503
            assert body["error"] == "circuit_open"
            assert body["retry_after"] > 0
            # A healthy spec still gets through.
            code, _ = service.submit({"cell": CELL_B})
            assert code == 202
        finally:
            service.drain(grace=5.0)

    def test_clean_runs_reset_the_breaker(self):
        service = make_service(
            StubRunner(), breaker_threshold=2, breaker_cooldown=60.0,
        )
        try:
            for _ in range(5):
                _, body = service.submit({"cell": CELL_A})
                view = wait_terminal(service, body["job_id"])
                assert view["status"] == "done"
            assert service.breaker.open_keys() == []
        finally:
            service.drain(grace=5.0)


class TestDeadlines:
    def test_expired_queued_job_never_runs(self):
        gate = threading.Event()
        blocker = StubRunner(gate=gate)

        class Clock:
            now = 0.0

            def __call__(self):
                return self.now

        clock = Clock()
        service = make_service(
            blocker, clock=clock, max_concurrent=1, request_deadline=10.0,
        )
        try:
            service.submit({"cell": CELL_A})  # occupies the only slot
            _, queued = service.submit({"cell": CELL_B, "deadline": 5.0})
            clock.now = 100.0  # queued job's deadline long gone
            gate.set()
            view = wait_terminal(service, queued["job_id"])
            assert view["status"] == "deadline_exceeded"
            assert view["error"]["error"] == "deadline_exceeded"
            assert blocker.calls == 1  # the expired job never evaluated
        finally:
            gate.set()
            service.drain(grace=5.0)

    def test_request_deadline_capped_by_server(self):
        clock = lambda: 50.0
        service = make_service(
            StubRunner(gate=threading.Event()), clock=clock,
            request_deadline=30.0,
        )
        try:
            assert service._effective_deadline(600.0) == pytest.approx(80.0)
            assert service._effective_deadline(None) == pytest.approx(80.0)
            assert service._effective_deadline(5.0) == pytest.approx(55.0)
        finally:
            service.drain(grace=0.1)


class TestDrainAndStats:
    def test_drain_reports_stranded_work(self):
        gate = threading.Event()
        service = make_service(StubRunner(gate=gate))
        service.submit({"cell": CELL_A})
        stranded = service.drain(grace=0.1)
        assert stranded == 1
        gate.set()

    def test_clean_drain_returns_zero(self):
        service = make_service(StubRunner())
        _, body = service.submit({"cell": CELL_A})
        wait_terminal(service, body["job_id"])
        assert service.drain(grace=5.0) == 0

    def test_stats_shape(self):
        service = make_service(StubRunner())
        try:
            _, body = service.submit({"cell": CELL_A})
            wait_terminal(service, body["job_id"])
            stats = service.stats()
            assert stats["counters"]["serve.submitted"] == 1
            assert stats["counters"]["serve.completed"] == 1
            assert stats["latency_ms"]["count"] == 1
            assert stats["jobs"] == {"done": 1}
            assert stats["breaker_open"] == []
            assert stats["pool"] is None  # an injected runner has none
        finally:
            service.drain(grace=5.0)

    def test_ready_reflects_saturation(self):
        gate = threading.Event()
        service = make_service(
            StubRunner(gate=gate), max_concurrent=1, max_queue=0,
        )
        try:
            ready, _ = service.ready()
            assert ready
            service.submit({"cell": CELL_A})
            ready, view = service.ready()
            assert not ready and view["status"] == "saturated"
        finally:
            gate.set()
            service.drain(grace=5.0)


@pytest.fixture
def real_service(tmp_path):
    """Build services on the real runner and its shared worker pool,
    over an empty result cache (a cached cell never reaches a worker,
    so chaos could not fire); each is drained at teardown."""
    from repro.sim import cache as sim_cache

    previous_dir = sim_cache.cache_dir()
    previous_enabled = sim_cache.cache_enabled()
    sim_cache.configure(enabled=True, directory=tmp_path)
    services = []

    def make(**overrides):
        defaults = dict(
            rate_limit=0.0, max_queue=16, max_concurrent=4,
            request_deadline=0.0, breaker_threshold=0, drain_grace=2.0,
            worker_timeout=60.0, retries=0, backoff=0.01, serve_jobs=2,
        )
        defaults.update(overrides)
        service = EvaluationService(ResilSettings(**defaults))
        services.append(service)
        return service

    try:
        yield make
    finally:
        for service in services:
            service.drain(grace=5.0)
        sim_cache.configure(enabled=previous_enabled, directory=previous_dir)


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestSharedPool:
    """Every request of one service dispatches through one worker pool."""

    def test_a_crash_stays_in_its_own_request(self, real_service):
        service = real_service()
        _, crashing = service.submit(
            {"cell": CELL_C, "chaos": "seed=3,crash=1.0"}
        )
        _, clean = service.submit({"cell": CELL_B})
        crashed = wait_terminal(service, crashing["job_id"], timeout=120.0)
        healthy = wait_terminal(service, clean["job_id"], timeout=120.0)
        assert crashed["status"] == healthy["status"] == "done"
        cells = crashed["result"]["cells"]
        assert [c["status"] for c in cells] == ["DEGRADED"]
        assert cells[0]["failure"]["error_type"] == "WorkerCrash"
        assert healthy["result"]["cells_degraded"] == 0
        _, third = service.submit({"cell": CELL_A})
        assert wait_terminal(service, third["job_id"])["status"] == "done"
        # Forked at start-up, plus one respawn for the crash.
        assert service.stats()["pool"]["spawned"] == 3

    def test_a_single_cell_overtakes_a_large_request(self, real_service):
        service = real_service()
        _, large = service.submit({"spec": {
            "policies": ["lru", "hpe", "random", "rrip", "clock-pro", "fifo"],
            "rates": [0.5, 0.75], "apps": ["BFS"], "scale": 0.5,
        }})
        _wait_until(lambda: service.stats()["pool"]["busy"] == 2)
        _, single = service.submit({"cell": CELL_C})
        assert wait_terminal(service, single["job_id"])["status"] == "done"
        # A first-come pool would run the single cell after ten of the
        # twelve.
        assert service.snapshot(large["job_id"])["status"] == "running"
        records = resil_journal.read_journal(
            resil_journal.journal_path(large["run_id"])
        )
        assert sum(r["type"] == "job_done" for r in records) <= 6
        assert wait_terminal(service, large["job_id"], timeout=120.0)[
            "result"]["cells_total"] == 12

    def test_drain_interrupts_stranded_work_and_closes_the_pool(
        self, real_service
    ):
        service = real_service(worker_timeout=20.0)
        processes = [
            worker.process for worker in service._supervisor._workers
        ]
        _, body = service.submit({"cell": CELL_C, "chaos": "seed=1,hang=1.0"})
        _wait_until(lambda: service.stats()["pool"]["busy"] == 1)
        assert service.drain(grace=0.5) == 1
        view = service.snapshot(body["job_id"], wait=5.0)
        assert view["status"] == "interrupted", view
        assert view["error"]["resume"] == f"hpe-repro resume {body['run_id']}"
        records = resil_journal.read_journal(
            resil_journal.journal_path(body["run_id"])
        )
        assert records[-1]["type"] == "run_interrupted"
        assert not any(process.is_alive() for process in processes)


class TestSummarize:
    def test_summary_is_json_shaped(self):
        import json

        from repro.scenarios.spec import MatrixSpec

        spec = MatrixSpec(policies=("lru",), rates=(0.5,), apps=("BFS",))
        summary = summarize_matrix(fake_matrix(spec))
        json.dumps(summary)  # must not raise
        assert summary["cells_total"] == 1
        assert summary["cells"][0]["metrics"]["ipc"] == 1.0


class TestRelaxedTierRejection:
    """Cell submissions accept only the spec's tiers 0-2."""

    def test_relaxed_fastpath_cell_is_rejected(self):
        """A tier outside 0-2 fails spec validation: 400 invalid_spec."""
        service = make_service(StubRunner())
        try:
            code, body = service.submit(
                {"cell": dict(CELL_A, fastpath=3)}
            )
            assert code == 400
            assert body["error"] == "invalid_spec"
            assert "fastpath" in body["message"]
        finally:
            service.drain()

    def test_bit_exact_fastpath_cell_is_normalised_away(self):
        """The tiers are bit-identical, so pinning one is accepted and
        folds into the same grid identity as an unpinned cell."""
        service = make_service(StubRunner())
        try:
            code, body = service.submit(
                {"cell": dict(CELL_A, fastpath=2)}
            )
            assert code == 202
            _, twin = service.submit({"cell": CELL_A})
            # same spec-hash prefix: the pinned tier left the identity
            assert twin["job_id"].rsplit("-", 1)[0] == \
                body["job_id"].rsplit("-", 1)[0]
        finally:
            service.drain()
