"""HTTP transport: routing, hostile clients, end-to-end chaos runs.

The acceptance contract of ISSUE 9: every request gets a structured
response — a result, explicit DEGRADED cells, or an HTTP error body
with ``Retry-After`` where meaningful.  Nothing is silently dropped.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.resil.settings import ResilSettings
from repro.serve.chaos_client import ChaosClient, chaos_roll
from repro.serve.client import ServiceClient
from repro.serve.http import MAX_BODY_BYTES, ServerThread
from repro.serve.service import EvaluationService

from tests.serve.test_service import CELL_A, CELL_B, StubRunner

FAST = dict(
    rate_limit=0.0, max_queue=16, max_concurrent=2,
    request_deadline=0.0, breaker_threshold=0, drain_grace=1.0,
    read_timeout=0.8,
)


@pytest.fixture
def stub_server():
    runner = StubRunner(delay=0.05)
    service = EvaluationService(ResilSettings(**FAST), runner=runner)
    with ServerThread(service) as server:
        yield server, ServiceClient("127.0.0.1", server.port), runner


class TestRouting:
    def test_health_ready_stats_scenarios(self, stub_server):
        _server, client, _runner = stub_server
        assert client.health().body == {"status": "ok"}
        assert client.ready().status == 200
        assert client.stats().status == 200
        names = {s["name"] for s in client.scenarios().body["scenarios"]}
        assert "smoke" in names

    def test_submit_watch_roundtrip(self, stub_server):
        _server, client, _runner = stub_server
        response = client.submit({"cell": CELL_A})
        assert response.status == 202
        job_id = response.body["job_id"]
        final = client.watch(job_id, timeout=30.0)
        assert final.body["status"] == "done"
        assert final.body["result"]["cells_total"] == 1

    def test_unknown_route_and_job(self, stub_server):
        _server, client, _runner = stub_server
        assert client.request("GET", "/nope").status == 404
        missing = client.job("job-ffffffff-0")
        assert missing.status == 404
        assert missing.body["error"] == "unknown_job"

    def test_wrong_method_is_405(self, stub_server):
        _server, client, _runner = stub_server
        assert client.request("GET", "/v1/submit").status == 405
        assert client.request("POST", "/healthz").status == 405

    def test_invalid_json_is_400(self, stub_server):
        server, _client, _runner = stub_server
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10.0
        ) as sock:
            body = b"{not json"
            sock.sendall(
                b"POST /v1/submit HTTP/1.1\r\nContent-Length: "
                + str(len(body)).encode() + b"\r\n\r\n" + body
            )
            raw = sock.makefile("rb").read()
        assert b"400" in raw.split(b"\r\n", 1)[0]
        assert b"invalid_json" in raw

    def test_jobs_listing(self, stub_server):
        _server, client, _runner = stub_server
        client.submit({"cell": CELL_A})
        listing = client.request("GET", "/v1/jobs")
        assert listing.status == 200
        assert len(listing.body["jobs"]) == 1


class TestHostileClients:
    def test_slow_client_gets_408(self, stub_server):
        server, _client, _runner = stub_server
        chaos = ChaosClient("127.0.0.1", server.port, seed=1, slow=1.0)
        body = json.dumps({"cell": CELL_A}).encode()
        response = chaos.send_slow(body, trickle_delay=0.4)
        assert response is not None
        assert response.status == 408
        assert response.body["error"] == "read_timeout"

    def test_oversized_body_gets_413(self, stub_server):
        server, _client, _runner = stub_server
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=10.0
        ) as sock:
            sock.sendall(
                b"POST /v1/submit HTTP/1.1\r\nContent-Length: "
                + str(MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n"
            )
            raw = sock.makefile("rb").read()
        assert b"413" in raw.split(b"\r\n", 1)[0]

    def test_abandoned_connection_leaves_server_healthy(self, stub_server):
        server, client, _runner = stub_server
        chaos = ChaosClient("127.0.0.1", server.port, seed=2)
        for _ in range(5):
            chaos.send_abandoned()
        assert client.health().status == 200

    def test_malformed_http_gets_a_structured_answer(self, stub_server):
        server, client, _runner = stub_server
        chaos = ChaosClient("127.0.0.1", server.port, seed=3)
        response = chaos.send_malformed(1)  # odd index: raw garbage
        assert response is not None and response.status == 400
        response = chaos.send_malformed(0)  # even index: bad JSON shape
        assert response is not None and response.status == 400
        assert client.health().status == 200

    def test_chaos_campaign_every_request_answered(self, stub_server):
        server, client, _runner = stub_server
        chaos = ChaosClient(
            "127.0.0.1", server.port, seed=11,
            abandon=0.2, malformed=0.2, duplicate=0.3,
        )
        report = chaos.run({"cell": CELL_B}, count=25)
        # The contract: only deliberately abandoned requests may go
        # unanswered; everything else got a structured status.
        assert report.unanswered == 0
        assert report.abandoned > 0
        assert report.malformed > 0
        answered = sum(report.statuses.values())
        assert answered == report.sent - report.abandoned
        assert set(report.statuses) <= {202, 400, 429, 503}
        assert client.health().status == 200

    def test_chaos_rolls_are_deterministic(self):
        first = [chaos_roll(7, "slow", i) for i in range(10)]
        second = [chaos_roll(7, "slow", i) for i in range(10)]
        assert first == second
        assert len(set(first)) == 10


class TestConcurrentDedupe:
    def test_eight_concurrent_identical_submissions_compute_once(self):
        gate = threading.Event()
        runner = StubRunner(gate=gate)
        service = EvaluationService(ResilSettings(**FAST), runner=runner)
        with ServerThread(service) as server:
            responses = []
            lock = threading.Lock()

            def submit():
                client = ServiceClient("127.0.0.1", server.port)
                response = client.submit({"cell": CELL_A})
                with lock:
                    responses.append(response)

            threads = [
                threading.Thread(target=submit) for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            gate.set()
            assert len(responses) == 8
            assert all(r.status == 202 for r in responses)
            job_ids = {r.body["job_id"] for r in responses}
            assert len(job_ids) == 1
            deduped = [r.body["deduped"] for r in responses]
            assert deduped.count(False) == 1
            assert deduped.count(True) == 7
            client = ServiceClient("127.0.0.1", server.port)
            final = client.watch(job_ids.pop(), timeout=30.0)
            assert final.body["status"] == "done"
            assert runner.calls == 1


class TestRetryAfterHeader:
    def test_429_and_503_carry_retry_after(self):
        gate = threading.Event()
        runner = StubRunner(gate=gate)
        settings = ResilSettings(
            rate_limit=0.0, max_queue=0, max_concurrent=1,
            request_deadline=0.0, breaker_threshold=0, drain_grace=1.0,
            read_timeout=0.8,
        )
        service = EvaluationService(settings, runner=runner)
        with ServerThread(service) as server:
            client = ServiceClient("127.0.0.1", server.port)
            assert client.submit({"cell": CELL_A}).status == 202
            shed = client.submit({"cell": CELL_B})
            assert shed.status == 503
            assert shed.retry_after is not None and shed.retry_after >= 1
            gate.set()


class TestEndToEndChaos:
    """Real evaluations through the real supervised pool."""

    @pytest.fixture(autouse=True)
    def _private_result_cache(self, tmp_path):
        # A warm session cache would serve these cells without ever
        # dispatching a worker (so chaos could never fire); give each
        # test its own empty cache directory instead.
        from repro.sim import cache as sim_cache

        previous_dir = sim_cache.cache_dir()
        previous_enabled = sim_cache.cache_enabled()
        sim_cache.configure(enabled=True, directory=tmp_path)
        try:
            yield
        finally:
            sim_cache.configure(
                enabled=previous_enabled, directory=previous_dir
            )

    def test_worker_crashes_degrade_not_drop(self):
        settings = ResilSettings(
            rate_limit=0.0, max_queue=8, max_concurrent=1,
            request_deadline=0.0, breaker_threshold=0, drain_grace=2.0,
            worker_timeout=60.0, retries=0, backoff=0.01, serve_jobs=2,
        )
        service = EvaluationService(settings)
        with ServerThread(service) as server:
            client = ServiceClient("127.0.0.1", server.port)
            response = client.submit({
                "cell": {"workload": "HOT", "policy": "lru",
                         "rate": 0.5, "scale": 0.25},
                "chaos": "seed=3,crash=1.0",
            })
            assert response.status == 202
            final = client.watch(response.body["job_id"], timeout=120.0)
            assert final.body["status"] == "done"
            result = final.body["result"]
            assert result["degraded"] is True
            assert result["cells_degraded"] == result["cells_total"] == 1
            failure = result["cells"][0]["failure"]
            assert failure["error_type"] == "WorkerCrash"

    def test_stats_report_one_pool_for_many_requests(self):
        from repro.experiments.runner import run_spec
        from repro.scenarios.spec import ScenarioSpec

        settings = ResilSettings(
            rate_limit=0.0, max_queue=16, max_concurrent=2,
            request_deadline=0.0, breaker_threshold=0, drain_grace=2.0,
            worker_timeout=60.0, retries=0, backoff=0.01, serve_jobs=2,
        )
        cells = [
            {"workload": app, "policy": policy, "rate": rate, "scale": 0.25}
            for app in ("HOT", "STN", "KMN")
            for policy in ("lru", "hpe")
            for rate in (0.5, 0.75)
        ]
        service = EvaluationService(settings)
        answers = {}
        lock = threading.Lock()
        with ServerThread(service) as server:
            def send(share):
                client = ServiceClient("127.0.0.1", server.port)
                for cell in share:
                    response = client.submit({"cell": cell})
                    final = client.watch(response.body["job_id"], timeout=120.0)
                    with lock:
                        answers[tuple(cell.values())] = final.body

            threads = [
                threading.Thread(target=send, args=(cells[i::2],))
                for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300.0)
                assert not thread.is_alive()
            pool = ServiceClient("127.0.0.1", server.port).stats().body["pool"]
        # Twelve simulated requests, one fork per pool worker.
        assert pool == {"workers": 2, "spawned": 2, "busy": 0, "queued": 0}
        assert len(answers) == len(cells)
        for cell in cells:
            body = answers[tuple(cell.values())]
            assert body["status"] == "done"
            metrics = body["result"]["cells"][0]["metrics"]
            expected = run_spec(ScenarioSpec(**cell), use_cache=False)
            for name in ("ipc", "cycles", "faults", "evictions"):
                assert metrics[name] == getattr(expected, name), (cell, name)

    def test_healthy_run_through_the_service_path(self):
        settings = ResilSettings(
            rate_limit=0.0, max_queue=8, max_concurrent=1,
            request_deadline=0.0, breaker_threshold=3, drain_grace=2.0,
            worker_timeout=60.0, retries=1, backoff=0.01, serve_jobs=2,
        )
        service = EvaluationService(settings)
        with ServerThread(service) as server:
            client = ServiceClient("127.0.0.1", server.port)
            response = client.submit({
                "cell": {"workload": "HOT", "policy": "hpe",
                         "rate": 0.5, "scale": 0.25},
            })
            assert response.status == 202
            final = client.watch(response.body["job_id"], timeout=120.0)
            assert final.body["status"] == "done"
            result = final.body["result"]
            assert result["degraded"] is False
            metrics = result["cells"][0]["metrics"]
            assert metrics["faults"] > 0
            # A second submission is served from the result cache.
            start = time.monotonic()
            again = client.submit({
                "cell": {"workload": "HOT", "policy": "hpe",
                         "rate": 0.5, "scale": 0.25},
            })
            final2 = client.watch(again.body["job_id"], timeout=60.0)
            assert final2.body["status"] == "done"
            assert time.monotonic() - start < 30.0
            assert final2.body["result"]["cells"][0]["metrics"] == metrics
