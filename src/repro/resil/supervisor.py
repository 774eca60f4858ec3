"""Supervised worker pool: timeouts, retries, crash isolation, watchdog.

``multiprocessing.Pool`` is the wrong tool for a long experiment matrix:
a worker that dies without returning leaves ``imap`` waiting forever, a
hung worker stalls the whole run, and one lost job loses the matrix.
This module replaces it with a supervisor that owns N persistent worker
processes and assigns jobs to them individually, so it always knows
*which* job a worker is running and can police it:

* **liveness watchdog** — ``multiprocessing.connection.wait`` over every
  worker's result pipe *and* process sentinel, so a worker that dies
  without sending anything is detected immediately (not at ``join``);
* **wall-clock timeouts** — a worker past its per-job deadline is
  terminated and the job counted as a timeout failure;
* **bounded retries** — failed jobs are re-queued with exponential
  backoff plus deterministic (hashed, seeded) jitter, up to
  ``retries`` extra attempts; a dead or hung process costs one retry,
  never the matrix;
* **crash forensics** — each worker's stderr is redirected to a file and
  the per-job tail is attached to the failure record;
* **graceful degradation** — a job whose retries are exhausted produces
  a :class:`JobFailure` (exception class, attempts, elapsed, stderr),
  not an exception in the parent.

Workers are persistent (they keep their in-process trace caches warm
across jobs) and are respawned on demand after a crash or kill.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.resil.chaos import CHAOS_CRASH_EXIT, ChaosSpec
from repro.resil import chaos as chaos_module
from repro.resil import settings as resil_settings

#: Per-job wall-clock timeout in seconds (``REPRO_WORKER_TIMEOUT``,
#: legacy ``REPRO_TIMEOUT``; 0 disables enforcement).
DEFAULT_TIMEOUT_S = 600.0
#: Extra attempts after the first failure (``REPRO_RETRIES``).
DEFAULT_RETRIES = 2
#: Base backoff before a retry, doubled per attempt (``REPRO_BACKOFF``).
DEFAULT_BACKOFF_S = 0.25

ENV_TIMEOUT = "REPRO_TIMEOUT"
ENV_WORKER_TIMEOUT = "REPRO_WORKER_TIMEOUT"
ENV_RETRIES = "REPRO_RETRIES"
ENV_BACKOFF = "REPRO_BACKOFF"

#: How long a worker hang simulation sleeps (far past any sane timeout).
_HANG_SLEEP_S = 86400.0

#: Default bytes of worker stderr attached to a failure record
#: (``REPRO_STDERR_TAIL``; see :func:`compact_tail`).
STDERR_TAIL_BYTES = 4096


def resolve_timeout(timeout: Optional[float] = None) -> float:
    """Per-job timeout: explicit value, env, then default (0 = disabled).

    A thin adapter over :func:`repro.resil.settings.resolve` — the one
    knob table — kept for the call sites and tests that predate it.
    ``REPRO_WORKER_TIMEOUT=0`` (or an explicit ``timeout=0``) disables
    wall-clock enforcement entirely; the legacy ``REPRO_TIMEOUT``
    cannot express 0.
    """
    return resil_settings.resolve(worker_timeout=timeout).worker_timeout


def resolve_retries(retries: Optional[int] = None) -> int:
    """Retry budget: explicit value, then ``REPRO_RETRIES``, then default."""
    return resil_settings.resolve(retries=retries).retries


def resolve_backoff(backoff: Optional[float] = None) -> float:
    """Backoff base: explicit value, then ``REPRO_BACKOFF``, then default."""
    return resil_settings.resolve(backoff=backoff).backoff


def compact_tail(text: str, limit: int = STDERR_TAIL_BYTES) -> str:
    """Bound a stderr tail: collapse duplicate-line runs, cap the bytes.

    A crash-looping worker prints the same traceback (or injected-chaos
    notice) every attempt; attaching that verbatim bloats journals and
    service error responses with pure repetition.  Consecutive
    duplicate lines collapse to one line plus an ``[xN]`` marker, and
    the result keeps its *tail* (the newest, most diagnostic end) when
    it still exceeds ``limit`` UTF-8 bytes.
    """
    if not text:
        return text
    out: list[str] = []
    run_line: Optional[str] = None
    run_count = 0

    def flush() -> None:
        if run_line is None:
            return
        out.append(run_line)
        if run_count > 1:
            out.append(f"  [repeated x{run_count}]")

    for line in text.splitlines():
        if line == run_line:
            run_count += 1
            continue
        flush()
        run_line = line
        run_count = 1
    flush()
    compacted = "\n".join(out)
    encoded = compacted.encode("utf-8")
    if len(encoded) > limit:
        compacted = encoded[-limit:].decode("utf-8", errors="replace")
        cut = compacted.find("\n")
        if 0 <= cut < len(compacted) - 1:
            compacted = compacted[cut + 1:]  # drop the torn first line
    return compacted


def backoff_delay(base: float, key: str, attempt: int) -> float:
    """Exponential backoff with deterministic jitter for one retry.

    ``base * 2**(attempt-1)`` scaled by a jitter in [1, 2) hashed from
    the job key and attempt — spreading retries without global RNG state
    (REP001) and reproducibly across runs.
    """
    if base <= 0:
        return 0.0
    step = base * (2.0 ** max(0, attempt - 1))
    digest = hashlib.sha256(f"{key}|{attempt}".encode("utf-8")).digest()
    jitter = 1.0 + int.from_bytes(digest[:8], "big") / 2.0 ** 64
    return step * jitter


@dataclass
class JobFailure:
    """A job whose retry budget is exhausted — explicit, not raised."""

    key: str
    error_type: str
    message: str
    attempts: int
    elapsed: float
    stderr_tail: str = ""

    def render(self) -> str:
        text = (
            f"{self.key}: {self.error_type} after {self.attempts} "
            f"attempt(s) ({self.elapsed:.2f}s): {self.message}"
        )
        if self.stderr_tail:
            text += f"\n  stderr: {self.stderr_tail.strip()[-400:]}"
        return text


@dataclass
class JobOutcome:
    """Terminal state of one supervised job."""

    key: str
    result: Any = None
    failure: Optional[JobFailure] = None
    attempts: int = 1
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.failure is None


@dataclass
class SupervisorStats:
    """Counters the supervisor accumulates across one :meth:`run`."""

    completed: int = 0
    retries: int = 0
    crashes: int = 0
    timeouts: int = 0
    transient_errors: int = 0
    exhausted: int = 0


class SupervisorInterrupted(RuntimeError):
    """Raised inside :meth:`WorkerSupervisor.run` on chaos SIGTERM."""


@dataclass
class _Job:
    key: str
    payload: Any
    attempt: int = 1
    not_before: float = 0.0
    started_first: float = 0.0
    last_error: str = ""
    last_message: str = ""
    last_stderr: str = ""


@dataclass
class _Worker:
    process: Any
    conn: Any
    stderr_path: Path
    job: Optional[_Job] = None
    deadline: float = 0.0
    stderr_offset: int = 0


def _worker_main(
    worker_fn: Callable[[Any], Any],
    conn: Any,
    stderr_path: str,
    chaos_text: str,
) -> None:
    """Worker process loop: recv (key, payload, attempt) → send outcome.

    Runs until the parent sends ``None`` or closes the pipe.  stderr is
    redirected at the fd level so tracebacks and injected-crash notices
    from any layer (including C extensions) land in the capture file.
    """
    try:
        stream = open(stderr_path, "ab", buffering=0)
        os.dup2(stream.fileno(), 2)
        sys.stderr = os.fdopen(2, "w", buffering=1)
    except OSError:
        pass
    spec: Optional[ChaosSpec] = None
    if chaos_text:
        spec = ChaosSpec.parse(chaos_text)
        chaos_module.activate(spec)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        key, payload, attempt = message
        if spec is not None:
            action = spec.worker_action(key, attempt)
            if action == "crash":
                print(
                    f"chaos: injected crash for {key} (attempt {attempt})",
                    file=sys.stderr, flush=True,
                )
                os._exit(CHAOS_CRASH_EXIT)
            if action == "hang":
                print(
                    f"chaos: injected hang for {key} (attempt {attempt})",
                    file=sys.stderr, flush=True,
                )
                time.sleep(_HANG_SLEEP_S)
            if action == "flaky":
                try:
                    conn.send((
                        "error", "ChaosTransientError",
                        f"injected transient failure (attempt {attempt})",
                    ))
                except (OSError, ValueError):
                    os._exit(1)
                continue
        try:
            result = worker_fn(payload)
        except BaseException as exc:  # noqa: BLE001 — forwarded, not hidden
            traceback.print_exc()
            try:
                conn.send(("error", type(exc).__name__, str(exc)))
            except (OSError, ValueError):
                os._exit(1)
        else:
            try:
                conn.send(("ok", result))
            except (OSError, ValueError):
                traceback.print_exc()
                os._exit(1)


class WorkerSupervisor:
    """Run jobs through supervised persistent workers (see module doc)."""

    def __init__(
        self,
        worker_fn: Callable[[Any], Any],
        jobs: int,
        *,
        timeout: Optional[float] = None,
        retries: Optional[int] = None,
        backoff: Optional[float] = None,
        chaos: Optional[ChaosSpec] = None,
        mp_context: Any = None,
        stderr_dir: Optional[Path] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.worker_fn = worker_fn
        self.jobs = jobs
        settings = resil_settings.resolve(
            worker_timeout=timeout, retries=retries, backoff=backoff
        )
        self.timeout = settings.worker_timeout
        self.retries = settings.retries
        self.backoff = settings.backoff
        self.stderr_limit = settings.stderr_tail_bytes
        self.chaos = chaos
        self.stats = SupervisorStats()
        if mp_context is None:
            import multiprocessing as mp

            methods = mp.get_all_start_methods()
            mp_context = mp.get_context(
                "fork" if "fork" in methods else None
            )
        self._ctx = mp_context
        self._stderr_dir = stderr_dir
        self._tmpdir: Optional[tempfile.TemporaryDirectory] = None
        self._workers: list[_Worker] = []
        self._spawned = 0

    @property
    def start_method(self) -> str:
        """How workers are created (``"fork"``, ``"spawn"``, ...)."""
        method: str = self._ctx.get_start_method()
        return method

    # -- worker lifecycle ----------------------------------------------

    def _stderr_root(self) -> Path:
        if self._stderr_dir is not None:
            return self._stderr_dir
        if self._tmpdir is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-sup-")
        return Path(self._tmpdir.name)

    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        self._spawned += 1
        stderr_path = self._stderr_root() / f"worker-{self._spawned}.stderr"
        chaos_text = self.chaos.text if self.chaos is not None else ""
        process = self._ctx.Process(
            target=_worker_main,
            args=(self.worker_fn, child_conn, str(stderr_path), chaos_text),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(
            process=process, conn=parent_conn, stderr_path=stderr_path
        )

    def _kill_worker(self, worker: _Worker) -> None:
        try:
            worker.process.terminate()
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5.0)
        except (OSError, ValueError):
            pass
        try:
            worker.conn.close()
        except OSError:
            pass

    def _stderr_tail(self, worker: _Worker) -> str:
        """Stderr this worker wrote since its current job was assigned.

        Bounded and deduplicated (:func:`compact_tail`) so a
        crash-looping worker cannot bloat failure records, journals, or
        service error responses with repeated tracebacks.
        """
        try:
            size = worker.stderr_path.stat().st_size
            with worker.stderr_path.open("rb") as stream:
                # Read a few multiples of the bound so duplicate-line
                # collapsing has material to work with, then compact.
                start = max(worker.stderr_offset, size - 4 * self.stderr_limit)
                stream.seek(start)
                raw = stream.read().decode("utf-8", errors="replace")
        except OSError:
            return ""
        return compact_tail(raw, self.stderr_limit)

    def shutdown(self) -> None:
        """Stop every worker (graceful send, then terminate) and clean up."""
        for worker in self._workers:
            try:
                worker.conn.send(None)
            except (OSError, ValueError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():
                self._kill_worker(worker)
            else:
                try:
                    worker.conn.close()
                except OSError:
                    pass
        self._workers = []
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    # -- failure/retry bookkeeping -------------------------------------

    def _record_failure(
        self,
        job: _Job,
        pending: list[_Job],
        outcomes: dict[str, JobOutcome],
        error_type: str,
        message: str,
        stderr_tail: str,
        now: float,
    ) -> Optional[JobOutcome]:
        """Retry ``job`` or mark it exhausted; return a terminal outcome."""
        job.last_error = error_type
        job.last_message = message
        job.last_stderr = stderr_tail
        if job.attempt <= self.retries:
            self.stats.retries += 1
            delay = backoff_delay(self.backoff, job.key, job.attempt)
            job.attempt += 1
            job.not_before = now + delay
            pending.append(job)
            return None
        self.stats.exhausted += 1
        elapsed = now - job.started_first
        outcome = JobOutcome(
            key=job.key,
            failure=JobFailure(
                key=job.key,
                error_type=error_type,
                message=message,
                attempts=job.attempt,
                elapsed=elapsed,
                stderr_tail=stderr_tail,
            ),
            attempts=job.attempt,
            elapsed=elapsed,
        )
        outcomes[job.key] = outcome
        return outcome

    # -- the supervision loop ------------------------------------------

    def run(
        self,
        items: Sequence[tuple[str, Any]],
        on_outcome: Optional[Callable[[JobOutcome], None]] = None,
    ) -> dict[str, JobOutcome]:
        """Run every (key, payload) to a terminal outcome.

        ``on_outcome`` fires once per job as it reaches success or
        retry exhaustion (journaling hook).  Raises
        :class:`SupervisorInterrupted` when the chaos spec's ``sigterm``
        budget is hit — after the triggering outcome was delivered.
        """
        outcomes: dict[str, JobOutcome] = {}
        pending: list[_Job] = [
            _Job(key=key, payload=payload) for key, payload in items
        ]
        if not pending:
            return outcomes
        try:
            self._workers = [
                self._spawn_worker()
                for _ in range(min(self.jobs, len(pending)))
            ]
            self._loop(pending, outcomes, on_outcome)
        finally:
            self.shutdown()
        return outcomes

    def _assign(self, worker: _Worker, job: _Job, now: float) -> None:
        if not job.started_first:
            job.started_first = now
        try:
            worker.stderr_offset = worker.stderr_path.stat().st_size
        except OSError:
            worker.stderr_offset = 0
        worker.job = job
        # timeout 0 is the documented escape hatch: no deadline at all.
        worker.deadline = (
            now + self.timeout if self.timeout > 0 else math.inf
        )
        worker.conn.send((job.key, job.payload, job.attempt))

    def _next_pending(self, pending: list[_Job], now: float) -> Optional[_Job]:
        """Pop the first runnable job (its backoff window has passed)."""
        for index, job in enumerate(pending):
            if job.not_before <= now:
                return pending.pop(index)
        return None

    def _finish(
        self,
        outcomes: dict[str, JobOutcome],
        outcome: JobOutcome,
        on_outcome: Optional[Callable[[JobOutcome], None]],
    ) -> None:
        self.stats.completed += 1
        if on_outcome is not None:
            on_outcome(outcome)
        if self.chaos is not None and self.chaos.should_interrupt(
            self.stats.completed
        ):
            raise SupervisorInterrupted(
                f"chaos sigterm after {self.stats.completed} completion(s)"
            )

    def _loop(
        self,
        pending: list[_Job],
        outcomes: dict[str, JobOutcome],
        on_outcome: Optional[Callable[[JobOutcome], None]],
    ) -> None:
        while pending or any(w.job is not None for w in self._workers):
            now = time.monotonic()
            # Replace any dead idle workers, then hand out work.
            for index, worker in enumerate(self._workers):
                if worker.job is None and not worker.process.is_alive():
                    self._kill_worker(worker)
                    self._workers[index] = self._spawn_worker()
            for worker in self._workers:
                if worker.job is not None:
                    continue
                job = self._next_pending(pending, now)
                if job is None:
                    break
                self._assign(worker, job, now)

            busy = [w for w in self._workers if w.job is not None]
            if not busy:
                # Everything pending is in a backoff window: sleep to
                # the earliest not_before.
                wake = min(job.not_before for job in pending)
                time.sleep(max(0.0, min(wake - now, 0.25)))
                continue

            # Earliest deadline bounds the wait; sentinels detect death.
            wait_timeout = max(
                0.0, min(w.deadline for w in busy) - now
            )
            sources: list[Any] = [w.conn for w in busy]
            sources.extend(w.process.sentinel for w in busy)
            ready = mp_connection.wait(sources, timeout=min(wait_timeout, 1.0))
            ready_set = set(ready)
            now = time.monotonic()

            for index, worker in enumerate(self._workers):
                job = worker.job
                if job is None:
                    continue
                message: Optional[tuple] = None
                if worker.conn in ready_set:
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        # The result pipe is gone — worker died mid-send,
                        # or closed its fd while staying alive.  Either
                        # way this is a crash *now*: waiting for the
                        # sentinel would busy-spin (wait() re-reports the
                        # dead pipe every iteration) until the deadline.
                        self.stats.crashes += 1
                        exit_code = worker.process.exitcode
                        tail = self._stderr_tail(worker)
                        self._kill_worker(worker)
                        self._workers[index] = self._spawn_worker()
                        terminal = self._record_failure(
                            job, pending, outcomes, "WorkerCrash",
                            "result pipe closed without a result "
                            f"(exit code {exit_code})",
                            tail, now,
                        )
                        if terminal is not None:
                            self._finish(outcomes, terminal, on_outcome)
                        continue
                if message is not None:
                    worker.job = None
                    if message[0] == "ok":
                        elapsed = now - job.started_first
                        outcome = JobOutcome(
                            key=job.key, result=message[1],
                            attempts=job.attempt, elapsed=elapsed,
                        )
                        outcomes[job.key] = outcome
                        self._finish(outcomes, outcome, on_outcome)
                    else:
                        _tag, error_type, error_message = message
                        self.stats.transient_errors += 1
                        terminal = self._record_failure(
                            job, pending, outcomes, error_type,
                            error_message, self._stderr_tail(worker), now,
                        )
                        if terminal is not None:
                            self._finish(outcomes, terminal, on_outcome)
                    continue
                if not worker.process.is_alive():
                    # Crash: the worker died without delivering a result.
                    self.stats.crashes += 1
                    exit_code = worker.process.exitcode
                    tail = self._stderr_tail(worker)
                    self._kill_worker(worker)
                    self._workers[index] = self._spawn_worker()
                    terminal = self._record_failure(
                        job, pending, outcomes, "WorkerCrash",
                        f"worker exited with code {exit_code} "
                        "without returning a result",
                        tail, now,
                    )
                    if terminal is not None:
                        self._finish(outcomes, terminal, on_outcome)
                    continue
                if now >= worker.deadline:
                    # Hang: past the wall-clock budget — kill and retry.
                    self.stats.timeouts += 1
                    tail = self._stderr_tail(worker)
                    self._kill_worker(worker)
                    self._workers[index] = self._spawn_worker()
                    terminal = self._record_failure(
                        job, pending, outcomes, "JobTimeout",
                        f"no result within {self.timeout:.1f}s "
                        "(worker terminated)",
                        tail, now,
                    )
                    if terminal is not None:
                        self._finish(outcomes, terminal, on_outcome)
