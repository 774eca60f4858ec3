"""The evaluation service core: admission → dedupe → dispatch → degrade.

:class:`EvaluationService` is the transport-free heart of ``hpe-repro
serve``.  It is a plain thread-safe object — the asyncio HTTP layer
(:mod:`repro.serve.http`) calls it from executor threads, and tests
call it directly without opening a socket.

A submission passes through four stages, in order:

1. **Admission** — draining servers refuse outright (503); malformed
   or unknown-field payloads are rejected with a structured 400; specs
   whose circuit breaker is open (a *poison request* that has crashed
   its workers repeatedly) are quarantined with 503 + ``Retry-After``;
   then queue-depth and token-bucket checks shed load with 503/429 +
   ``Retry-After``.  Every rejection is an explicit JSON body — no
   request is ever dropped without a structured answer.
2. **Dedupe (single-flight)** — a submission identical to one already
   queued or running (same spec hash, same chaos injection) attaches
   to the in-flight job instead of evaluating again: N identical
   concurrent submissions compute exactly once.  Dedupe runs *before*
   rate limiting, so duplicates are free.
3. **Dispatch** — cache misses evaluate through
   :func:`repro.experiments.runner.run_scenario` on the supervised
   worker pool (``serve_jobs`` is clamped to >= 2 so the
   timeout-enforced pool path is always taken); the content-addressed
   result cache underneath serves repeat cells without simulation.
4. **Degrade** — a crashed or timed-out worker never kills the
   request: the affected cells come back as explicit DEGRADED entries
   while healthy cells carry results.  Crash/timeout degradation feeds
   the circuit breaker; clean completions reset it.

Deadlines: a request's deadline covers its whole life — queue wait
included.  It is checked when the evaluation would start (an expired
queued job terminates as ``deadline_exceeded`` without running) and
each cell is separately bounded by ``worker_timeout`` while running.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from repro.obs import MetricsRegistry
from repro.resil import MatrixInterrupted
from repro.resil.chaos import ChaosSpec, ChaosSpecError
from repro.resil.settings import ResilSettings
from repro.resil.settings import resolve as resolve_settings
from repro.resil.supervisor import JobFailure
from repro.scenarios.registry import all_scenarios, get_scenario
from repro.scenarios.spec import MatrixSpec, ScenarioError, ScenarioSpec
from repro.serve.ratelimit import CircuitBreaker, Clock, TokenBucket

#: Failure types that indicate infrastructure (not simulation) trouble —
#: these feed the circuit breaker; anything else is an honest result.
CRASH_FAILURE_TYPES = frozenset({
    "WorkerCrash", "JobTimeout", "ChaosCrashError", "ChaosHangError",
})

#: ``Retry-After`` quoted on queue-depth sheds (no better estimate than
#: "one typical short evaluation" without profiling the queue).
SHED_RETRY_AFTER_S = 5.0

#: Terminal jobs kept for ``GET /v1/jobs/<id>`` after completion.
MAX_COMPLETED_JOBS = 256

#: Job states.  ``queued`` and ``running`` are live; the rest terminal.
LIVE_STATES = ("queued", "running")
TERMINAL_STATES = (
    "done", "error", "interrupted", "deadline_exceeded", "cancelled",
)


@dataclass(frozen=True)
class Rejection(Exception):
    """An admission refusal — always carried to the client as JSON."""

    status: int
    error: str
    message: str
    retry_after: Optional[float] = None

    def body(self) -> dict[str, object]:
        payload: dict[str, object] = {
            "error": self.error,
            "message": self.message,
        }
        if self.retry_after is not None:
            payload["retry_after"] = round(self.retry_after, 3)
        return payload


@dataclass
class Job:
    """One admitted evaluation request and its lifecycle."""

    job_id: str
    spec: MatrixSpec
    spec_hash: str
    chaos: str
    deadline_at: Optional[float]
    submitted_at: float
    status: str = "queued"
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Submissions that attached to this job via single-flight dedupe.
    dedupe_hits: int = 0
    result: Optional[dict[str, object]] = None
    error: Optional[dict[str, object]] = None

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES


def summarize_matrix(matrix: Any) -> dict[str, object]:
    """JSON-able summary of a :class:`ResultMatrix` with DEGRADED cells."""
    cells: list[dict[str, object]] = []
    for key in matrix._order:
        cell: dict[str, object] = {
            "app": key.app,
            "policy": key.policy,
            "rate": key.rate,
        }
        failure = matrix.failures.get(key)
        if failure is not None:
            cell["status"] = "DEGRADED"
            cell["failure"] = {
                "error_type": failure.error_type,
                "message": failure.message,
                "attempts": failure.attempts,
                "elapsed": round(failure.elapsed, 3),
                "stderr_tail": failure.stderr_tail,
            }
        else:
            result = matrix.results[key]
            cell["status"] = "ok"
            cell["metrics"] = {
                "ipc": result.ipc,
                "cycles": result.cycles,
                "instructions": result.instructions,
                "faults": result.faults,
                "evictions": result.evictions,
                "capacity_pages": result.capacity_pages,
                "footprint_pages": result.footprint_pages,
            }
        cells.append(cell)
    degraded = [c for c in cells if c["status"] == "DEGRADED"]
    return {
        "run_id": matrix.run_id,
        "degraded": bool(degraded),
        "cells_total": len(cells),
        "cells_degraded": len(degraded),
        "cells": cells,
    }


def _crash_degraded(matrix: Any) -> bool:
    """Did any cell degrade for an infrastructure reason (crash/hang)?"""
    return any(
        failure.error_type in CRASH_FAILURE_TYPES
        for failure in matrix.failures.values()
    )


class EvaluationService:
    """Admission-controlled, deduplicating, degradable evaluation core.

    ``runner`` is injectable for tests: it must accept the keyword
    signature of :func:`repro.experiments.runner.run_scenario` and
    return a ``ResultMatrix``-shaped object.  ``clock`` drives the
    token bucket, breaker, deadlines and latency metrics (fake clocks
    make the admission tests deterministic — no sleeping).
    """

    def __init__(
        self,
        settings: Optional[ResilSettings] = None,
        *,
        runner: Optional[Callable[..., Any]] = None,
        clock: Optional[Clock] = None,
        chaos: Optional[str] = None,
    ) -> None:
        self.settings = settings if settings is not None else resolve_settings()
        self._clock: Clock = clock if clock is not None else time.monotonic
        if runner is None:
            from repro.experiments.runner import run_scenario
            runner = run_scenario
        self._runner = runner
        #: Server-side chaos injection applied to every evaluation
        #: (``hpe-repro serve --chaos`` — the chaos harness wired
        #: through the service path).
        self.server_chaos = (chaos or "").strip()
        if self.server_chaos:
            ChaosSpec.parse(self.server_chaos)  # fail fast on bad grammar
        self._lock = threading.Lock()
        self._terminal = threading.Condition(self._lock)
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        #: Single-flight index: (spec_hash, chaos) -> live job id.
        self._inflight: dict[tuple[str, str], str] = {}
        self._seq = 0
        self._draining = False
        self.metrics = MetricsRegistry()
        self.bucket = TokenBucket(
            self.settings.rate_limit,
            self.settings.rate_burst,
            clock=self._clock,
        )
        self.breaker = CircuitBreaker(
            self.settings.breaker_threshold,
            self.settings.breaker_cooldown,
            clock=self._clock,
        )
        from concurrent.futures import ThreadPoolExecutor
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, self.settings.max_concurrent),
            thread_name_prefix="serve-eval",
        )

    # -- request validation -------------------------------------------

    _ALLOWED_KEYS = frozenset({"scenario", "spec", "cell", "chaos", "deadline"})

    def _parse_payload(
        self, payload: object
    ) -> tuple[MatrixSpec, str, Optional[float]]:
        """Validate one submission body → (spec, chaos, deadline)."""
        if not isinstance(payload, Mapping):
            raise Rejection(400, "invalid_request", "body must be a JSON object")
        unknown = sorted(set(payload) - self._ALLOWED_KEYS)
        if unknown:
            raise Rejection(
                400, "invalid_request",
                f"unknown field(s): {', '.join(unknown)}; "
                f"allowed: {', '.join(sorted(self._ALLOWED_KEYS))}",
            )
        sources = [k for k in ("scenario", "spec", "cell") if k in payload]
        if len(sources) != 1:
            raise Rejection(
                400, "invalid_request",
                "exactly one of 'scenario', 'spec' or 'cell' is required",
            )
        try:
            spec = self._build_spec(sources[0], payload[sources[0]])
        except (ScenarioError, TypeError) as exc:
            raise Rejection(400, "invalid_spec", str(exc)) from exc
        chaos = payload.get("chaos", "")
        if not isinstance(chaos, str):
            raise Rejection(400, "invalid_request", "'chaos' must be a string")
        chaos = chaos.strip()
        if chaos:
            try:
                ChaosSpec.parse(chaos)
            except ChaosSpecError as exc:
                raise Rejection(400, "invalid_chaos", str(exc)) from exc
        deadline = payload.get("deadline")
        if deadline is not None:
            if not isinstance(deadline, (int, float)) or isinstance(
                deadline, bool
            ) or deadline <= 0:
                raise Rejection(
                    400, "invalid_request",
                    "'deadline' must be a positive number of seconds",
                )
            deadline = float(deadline)
        return spec, chaos, deadline

    def _build_spec(self, kind: str, value: object) -> MatrixSpec:
        if kind == "scenario":
            if not isinstance(value, str):
                raise ScenarioError("'scenario' must be a string name")
            return get_scenario(value).spec
        if not isinstance(value, Mapping):
            raise ScenarioError(f"'{kind}' must be a JSON object")
        if kind == "spec":
            return MatrixSpec.from_dict(value)
        cell = ScenarioSpec.from_dict(value)
        if cell.params:
            raise ScenarioError(
                "'cell' submissions do not support generator params; "
                "submit a 'spec' grid instead"
            )
        return MatrixSpec(
            policies=(cell.policy,),
            rates=(cell.rate,),
            apps=(cell.workload,),
            seed=cell.seed,
            scale=cell.scale,
            family=cell.family,
            config=cell.config,
            hpe_config=cell.hpe_config,
            prefetch_degree=cell.prefetch_degree,
        )

    # -- admission ----------------------------------------------------

    def _effective_deadline(self, asked: Optional[float]) -> Optional[float]:
        """Absolute deadline: the shorter of asked and the server cap."""
        cap = self.settings.request_deadline
        if asked is None:
            budget = cap if cap > 0 else None
        elif cap > 0:
            budget = min(asked, cap)
        else:
            budget = asked
        return None if budget is None else self._clock() + budget

    def _live_count_locked(self) -> int:
        return sum(1 for job in self._jobs.values() if not job.terminal)

    def submit(self, payload: object) -> tuple[int, dict[str, object]]:
        """One submission → ``(http_status, json_body)``; never raises.

        202 with a job id on admission (``deduped: true`` when attached
        to an in-flight twin), 400/429/503 with a structured error body
        otherwise.
        """
        try:
            return self._submit(payload)
        except Rejection as rejection:
            with self._lock:
                self.metrics.inc(f"serve.rejected.{rejection.error}")
                self.metrics.inc("serve.rejected")
            return rejection.status, rejection.body()

    def _submit(self, payload: object) -> tuple[int, dict[str, object]]:
        if self._draining:
            raise Rejection(
                503, "draining",
                "server is draining; resubmit elsewhere or later",
                retry_after=self.settings.drain_grace,
            )
        spec, chaos, asked_deadline = self._parse_payload(payload)
        spec_hash = spec.spec_hash()
        flight_key = (spec_hash, chaos)
        with self._lock:
            self.metrics.inc("serve.submitted")
            # Single-flight dedupe first: attaching to an in-flight
            # twin costs nothing, so it bypasses rate/queue admission.
            live_id = self._inflight.get(flight_key)
            if live_id is not None:
                job = self._jobs[live_id]
                if not job.terminal:
                    job.dedupe_hits += 1
                    self.metrics.inc("serve.deduped")
                    return 202, {
                        "job_id": job.job_id,
                        "status": job.status,
                        "spec_hash": spec_hash,
                        "run_id": spec.run_id(),
                        "deduped": True,
                    }
            decision = self.breaker.check(spec_hash)
            if not decision.allowed:
                raise Rejection(
                    503, "circuit_open",
                    f"spec {spec_hash[:12]} is quarantined after repeated "
                    f"worker crashes; retry after cooldown",
                    retry_after=decision.retry_after,
                )
            live = self._live_count_locked()
            depth_limit = (
                self.settings.max_concurrent + self.settings.max_queue
            )
            if live >= depth_limit:
                if decision.probe:
                    self.breaker.record_failure(spec_hash)
                self.metrics.inc("serve.shed.queue")
                raise Rejection(
                    503, "queue_full",
                    f"{live} request(s) queued or running "
                    f"(limit {depth_limit})",
                    retry_after=SHED_RETRY_AFTER_S,
                )
            if not self.bucket.try_acquire():
                if decision.probe:
                    # Return the probe slot; the shed wasn't its fault.
                    self.breaker.record_failure(spec_hash)
                self.metrics.inc("serve.shed.rate")
                raise Rejection(
                    429, "rate_limited",
                    "request rate exceeds the admission budget",
                    retry_after=self.bucket.retry_after(),
                )
            self._seq += 1
            job = Job(
                job_id=f"job-{spec_hash[:8]}-{self._seq}",
                spec=spec,
                spec_hash=spec_hash,
                chaos=chaos,
                deadline_at=self._effective_deadline(asked_deadline),
                submitted_at=self._clock(),
            )
            self._jobs[job.job_id] = job
            self._inflight[flight_key] = job.job_id
            self._trim_terminal_locked()
            self._update_gauges_locked()
        self._pool.submit(self._evaluate, job.job_id)
        return 202, {
            "job_id": job.job_id,
            "status": "queued",
            "spec_hash": spec_hash,
            "run_id": spec.run_id(),
            "deduped": False,
        }

    # -- evaluation ---------------------------------------------------

    def _combined_chaos(self, job: Job) -> Optional[str]:
        """Request chaos wins over server chaos (tests may override)."""
        return job.chaos or self.server_chaos or None

    def _evaluate(self, job_id: str) -> None:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.terminal:
                return
            now = self._clock()
            if job.deadline_at is not None and now >= job.deadline_at:
                self._finish_locked(job, "deadline_exceeded", error={
                    "error": "deadline_exceeded",
                    "message": (
                        f"deadline expired after "
                        f"{now - job.submitted_at:.1f}s in queue"
                    ),
                })
                self.metrics.inc("serve.deadline_expired")
                return
            job.status = "running"
            job.started_at = now
            self._update_gauges_locked()
        try:
            matrix = self._runner(
                job.spec,
                progress=False,
                jobs=max(2, self.settings.serve_jobs),
                timeout=self.settings.worker_timeout,
                retries=self.settings.retries,
                backoff=self.settings.backoff,
                chaos=self._combined_chaos(job),
            )
        except MatrixInterrupted as exc:
            with self._lock:
                self.metrics.inc("serve.interrupted")
                self._finish_locked(job, "interrupted", error={
                    "error": "interrupted",
                    "message": str(exc),
                    "run_id": exc.run_id,
                    "resume": f"hpe-repro resume {exc.run_id}",
                })
            return
        except Exception as exc:  # noqa: BLE001 - degrade, never drop
            self.breaker.record_failure(job.spec_hash)
            with self._lock:
                self.metrics.inc("serve.errors")
                self._finish_locked(job, "error", error={
                    "error": type(exc).__name__,
                    "message": str(exc),
                })
            return
        summary = summarize_matrix(matrix)
        if _crash_degraded(matrix):
            self.breaker.record_failure(job.spec_hash)
        else:
            self.breaker.record_success(job.spec_hash)
        with self._lock:
            self.metrics.inc("serve.completed")
            if summary["degraded"]:
                self.metrics.inc("serve.degraded")
                self.metrics.inc(
                    "serve.cells_degraded", summary["cells_degraded"]
                )
            self._finish_locked(job, "done", result=summary)

    def _finish_locked(
        self,
        job: Job,
        status: str,
        *,
        result: Optional[dict[str, object]] = None,
        error: Optional[dict[str, object]] = None,
    ) -> None:
        job.status = status
        job.result = result
        job.error = error
        job.finished_at = self._clock()
        self.metrics.observe(
            "serve.request_latency_ms",
            (job.finished_at - job.submitted_at) * 1000.0,
        )
        flight_key = (job.spec_hash, job.chaos)
        if self._inflight.get(flight_key) == job.job_id:
            del self._inflight[flight_key]
        self._update_gauges_locked()
        self._terminal.notify_all()

    def _trim_terminal_locked(self) -> None:
        terminal = [j for j in self._jobs.values() if j.terminal]
        excess = len(terminal) - MAX_COMPLETED_JOBS
        for job in terminal[:max(0, excess)]:
            del self._jobs[job.job_id]

    def _update_gauges_locked(self) -> None:
        queued = sum(1 for j in self._jobs.values() if j.status == "queued")
        running = sum(1 for j in self._jobs.values() if j.status == "running")
        self.metrics.set_gauge("serve.queue_depth", queued)
        self.metrics.set_gauge("serve.inflight", running)

    # -- inspection ---------------------------------------------------

    def snapshot(
        self, job_id: str, wait: float = 0.0
    ) -> Optional[dict[str, object]]:
        """JSON view of one job; optionally block until terminal.

        ``wait`` seconds is an upper bound — the call returns as soon
        as the job finishes.  ``None`` for unknown ids.
        """
        deadline = time.monotonic() + max(0.0, wait)
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None:
                return None
            while not job.terminal:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._terminal.wait(remaining)
            return self._job_view_locked(job)

    def _job_view_locked(self, job: Job) -> dict[str, object]:
        now = self._clock()
        view: dict[str, object] = {
            "job_id": job.job_id,
            "status": job.status,
            "spec_hash": job.spec_hash,
            "run_id": job.spec.run_id(),
            "chaos": job.chaos,
            "dedupe_hits": job.dedupe_hits,
            "elapsed": round(
                (job.finished_at if job.finished_at is not None else now)
                - job.submitted_at, 3,
            ),
        }
        if job.result is not None:
            view["result"] = job.result
        if job.error is not None:
            view["error"] = job.error
        return view

    def list_jobs(self) -> list[dict[str, object]]:
        """Every known job, oldest first (bounded by the terminal trim)."""
        with self._lock:
            return [self._job_view_locked(job) for job in self._jobs.values()]

    def scenarios(self) -> list[dict[str, object]]:
        """The named scenarios a client may submit."""
        return [
            {
                "name": entry.name,
                "description": entry.description,
                "cells": len(entry.spec.cells()),
                "spec_hash": entry.spec.spec_hash(),
            }
            for entry in all_scenarios()
        ]

    def stats(self) -> dict[str, object]:
        """Counters, gauges, latency summary, breaker and queue state."""
        with self._lock:
            latency = self.metrics.histogram("serve.request_latency_ms")
            by_state: dict[str, int] = {}
            for job in self._jobs.values():
                by_state[job.status] = by_state.get(job.status, 0) + 1
            return {
                "draining": self._draining,
                "jobs": by_state,
                "inflight_keys": len(self._inflight),
                "counters": {
                    name: self.metrics.counter(name)
                    for name in (
                        "serve.submitted", "serve.deduped", "serve.rejected",
                        "serve.shed.queue", "serve.shed.rate",
                        "serve.completed", "serve.degraded", "serve.errors",
                        "serve.interrupted", "serve.deadline_expired",
                    )
                },
                "latency_ms": {
                    "count": latency.count,
                    "mean": (
                        latency.total / latency.count if latency.count else 0.0
                    ),
                    "min": latency.min,
                    "max": latency.max,
                },
                "tokens": self.bucket.tokens,
                "breaker_open": self.breaker.open_keys(),
                "breaker_trips": self.breaker.tripped_total,
            }

    def health(self) -> dict[str, object]:
        """Liveness: the process is up and answering."""
        return {"status": "draining" if self._draining else "ok"}

    def ready(self) -> tuple[bool, dict[str, object]]:
        """Readiness: would a submission be admitted right now?"""
        with self._lock:
            live = self._live_count_locked()
            limit = self.settings.max_concurrent + self.settings.max_queue
            ready = not self._draining and live < limit
            return ready, {
                "status": "ok" if ready else "saturated",
                "draining": self._draining,
                "live": live,
                "limit": limit,
            }

    # -- shutdown -----------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self, grace: Optional[float] = None) -> int:
        """Stop admitting, wait up to ``grace`` for in-flight work.

        Returns the number of jobs still live when the grace expired —
        0 means a clean drain (exit 0); anything else maps to exit 75
        (``EX_TEMPFAIL``): the journal has what finished, ``hpe-repro
        resume`` picks up the rest.
        """
        grace = self.settings.drain_grace if grace is None else grace
        deadline = time.monotonic() + max(0.0, grace)
        with self._lock:
            self._draining = True
            while self._live_count_locked() > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._terminal.wait(remaining)
            stranded = self._live_count_locked()
        self._pool.shutdown(wait=(stranded == 0))
        return stranded
