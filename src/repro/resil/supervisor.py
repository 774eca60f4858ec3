"""Supervised job execution: timeouts, retries, crash isolation, watchdog.

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

A supervisor has two lifetimes.  Per call, :meth:`~WorkerSupervisor.run`
forks ``min(jobs, len(items))`` workers, dispatches in the calling
thread and shuts the workers down before it returns.  Long-lived,
:meth:`~WorkerSupervisor.start` forks ``jobs`` workers and one
dispatcher thread; :meth:`~WorkerSupervisor.run` may then be called
from many threads at once, each call keeping its own outcomes,
:class:`SupervisorStats`, chaos spec and ``on_outcome``, and
:meth:`~WorkerSupervisor.close` answers every waiting call with
:class:`SupervisorInterrupted` and terminates the workers.  Both
lifetimes run one dispatch loop (:meth:`WorkerSupervisor._loop`): a free
worker takes the oldest runnable job of the call with the fewest jobs in
flight, so a large matrix cannot starve a single-cell call.

With ``jobs=1`` the supervisor runs each attempt in the calling process
instead, under a SIGALRM wall-clock deadline; an injected chaos
``crash`` or ``hang`` answers ``WorkerCrash`` or ``JobTimeout`` there
directly, since there is no process to lose.  Both executors answer an
attempt the way the worker pipe does — ``("ok", result)`` or
``("error", type, message)`` — and settle it through one path
(:meth:`WorkerSupervisor._settle`) that owns retry, backoff, the failure
identity, the :class:`SupervisorStats` counters and the chaos
``sigterm`` budget.  Any ``jobs > 1`` keeps worker processes even for a
single job, because only a process can be killed while a job hangs in
C code.
"""

from __future__ import annotations

import hashlib
import math
import os
import queue
import signal
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.resil.chaos import CHAOS_CRASH_EXIT, ChaosSpec
from repro.resil import chaos as chaos_module
from repro.resil import settings as resil_settings

#: How long a worker hang simulation sleeps (far past any sane timeout).
_HANG_SLEEP_S = 86400.0

#: Default bytes of worker stderr attached to a failure record
#: (``REPRO_STDERR_TAIL``; see :func:`compact_tail`).
STDERR_TAIL_BYTES = 4096

#: Failure identities of an attempt that stopped answering: its worker
#: died or closed its pipe, or it ran past its deadline.
_LOST = ("WorkerCrash", "JobTimeout")

#: The failure identity each injected chaos action answers with.  In a
#: worker process a crash or hang really happens and is observed as one
#: of :data:`_LOST`; in process the attempt answers with it directly.
_CHAOS_ERRORS = {
    "crash": "WorkerCrash",
    "hang": "JobTimeout",
    "flaky": "ChaosTransientError",
}


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
    """Raised inside :meth:`WorkerSupervisor.run` on chaos SIGTERM, or
    when :meth:`WorkerSupervisor.close` ends a long-lived pool."""


class _DeadlineExpired(BaseException):
    """An in-process attempt ran past its wall-clock budget."""


def _expire(_signum: int, _frame: object) -> None:
    raise _DeadlineExpired()


class _AlarmDeadline:
    """SIGALRM wall-clock budget for one in-process attempt.

    Armed around the attempt and disarmed (the previous handler
    restored) the moment it finishes, so the alarm never fires in the
    retry bookkeeping or journaling that follow.  Not enforced when the
    timeout is 0 (the documented escape hatch), off the main thread
    (signal handlers only run there), or where the platform lacks
    ``setitimer``.
    """

    def __init__(self, timeout: float) -> None:
        self.timeout = timeout
        self.enforcing = (
            timeout > 0
            and hasattr(signal, "setitimer")
            and threading.current_thread() is threading.main_thread()
        )
        self._previous: Any = None

    def __enter__(self) -> "_AlarmDeadline":
        if self.enforcing:
            self._previous = signal.signal(signal.SIGALRM, _expire)
            signal.setitimer(signal.ITIMER_REAL, self.timeout)
        return self

    def __exit__(self, *_exc: object) -> None:
        if self.enforcing:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous)


def _injected(action: str, key: str, attempt: int) -> tuple:
    """The answer an attempt gives for an injected chaos ``action``."""
    return (
        "error", _CHAOS_ERRORS[action],
        f"injected {action} for {key} (attempt {attempt})",
    )


@dataclass
class _Job:
    key: str
    payload: Any
    attempt: int = 1
    not_before: float = 0.0
    started_first: float = 0.0


@dataclass
class _Run:
    """One :meth:`WorkerSupervisor.run` call: its jobs and their answers."""

    pending: list[_Job]
    chaos: Optional[ChaosSpec]
    on_outcome: Optional[Callable[[JobOutcome], None]]
    stats: SupervisorStats
    outcomes: dict[str, JobOutcome] = field(default_factory=dict)
    in_flight: int = 0
    #: Why the run stopped before every job finished ("" until then).
    interrupted: str = ""
    #: A long-lived pool hands outcomes to the calling thread here
    #: (``None`` ends the run); otherwise they are delivered inline.
    inbox: Optional["queue.SimpleQueue[Optional[JobOutcome]]"] = None

    @property
    def finished(self) -> bool:
        return bool(self.interrupted) or (
            not self.pending and self.in_flight == 0
        )

    def deliver(self, outcome: JobOutcome) -> None:
        if self.inbox is not None:
            self.inbox.put(outcome)
        elif self.on_outcome is not None:
            self.on_outcome(outcome)

    def stop(self, reason: str) -> None:
        """Drop the pending jobs; answers still in flight are discarded."""
        if not self.interrupted:
            self.interrupted = reason
        self.pending.clear()


@dataclass
class _Worker:
    process: Any
    conn: Any
    stderr_path: Path
    run: Optional[_Run] = None
    job: Optional[_Job] = None
    deadline: float = 0.0
    stderr_offset: int = 0


def _worker_main(
    worker_fn: Callable[[Any], Any],
    conn: Any,
    stderr_path: str,
) -> None:
    """Worker process loop: recv (key, payload, attempt, chaos) → send answer.

    Runs until the parent sends ``None`` or closes the pipe.  stderr is
    redirected at the fd level so tracebacks and injected-crash notices
    from any layer (including C extensions) land in the capture file.
    """
    # A forked worker inherits the parent's SIGTERM handler: the
    # runner's clean-shutdown handler would turn ``terminate()`` into an
    # exception this loop forwards and survives, and an event loop's
    # wakeup fd would pass the signal on to the parent's loop.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        stream = open(stderr_path, "ab", buffering=0)
        os.dup2(stream.fileno(), 2)
        sys.stderr = os.fdopen(2, "w", buffering=1)
    except OSError:
        pass
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        key, payload, attempt, chaos_text = message
        # Chaos travels with each job: one pool serves runs with
        # different specs.  The cache-write hook (torn writes) reads
        # the active spec.
        spec = ChaosSpec.parse(chaos_text) if chaos_text else None
        chaos_module.activate(spec)
        action = spec.worker_action(key, attempt) if spec is not None else None
        if action in ("crash", "hang"):
            print(
                f"chaos: injected {action} for {key} (attempt {attempt})",
                file=sys.stderr, flush=True,
            )
            if action == "crash":
                os._exit(CHAOS_CRASH_EXIT)
            time.sleep(_HANG_SLEEP_S)
        if action == "flaky":
            answer = _injected("flaky", key, attempt)
        else:
            try:
                answer = ("ok", worker_fn(payload))
            except BaseException as exc:  # noqa: BLE001 — forwarded, not hidden
                traceback.print_exc()
                answer = ("error", type(exc).__name__, str(exc))
        try:
            conn.send(answer)
        except (OSError, ValueError):
            traceback.print_exc()
            os._exit(1)


class WorkerSupervisor:
    """Run jobs to terminal outcomes under supervision (see module doc)."""

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
        #: Chaos for every run that brings none of its own.
        self.chaos = chaos
        #: Counters of the most recent :meth:`run` (concurrent callers
        #: of a long-lived pool pass their own ``stats``).
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
        # Guards the runs and their job lists, which the dispatcher
        # thread of a long-lived pool shares with its callers.
        self._lock = threading.Lock()
        self._runs: list[_Run] = []
        self._closed = False
        self._dispatcher: Optional[threading.Thread] = None
        # A self-pipe that wakes the dispatcher when a run arrives or
        # the pool closes (-1 until :meth:`start`).
        self._wake_r = -1
        self._wake_w = -1

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
        process = self._ctx.Process(
            target=_worker_main,
            args=(self.worker_fn, child_conn, str(stderr_path)),
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

    def _replace_worker(self, index: int) -> None:
        self._kill_worker(self._workers[index])
        self._workers[index] = self._spawn_worker()

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

    # -- the long-lived pool -------------------------------------------

    def start(self) -> "WorkerSupervisor":
        """Fork ``jobs`` workers and the dispatcher thread; returns self.

        Call it before the process starts other threads: a worker forked
        while another thread holds a lock inherits that lock held.  Only
        respawns after a crash or timeout fork later.
        """
        if self.jobs < 2:
            raise ValueError("a long-lived pool needs jobs >= 2")
        if self._dispatcher is not None or self._closed:
            raise RuntimeError("a pool starts once")
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_w, False)
        self._workers = [self._spawn_worker() for _ in range(self.jobs)]
        self._dispatcher = threading.Thread(
            target=self._dispatch_until_closed,
            name="supervisor-dispatch", daemon=True,
        )
        self._dispatcher.start()
        return self

    def close(self) -> None:
        """End every waiting :meth:`run` with :class:`SupervisorInterrupted`
        and terminate the workers.  Idempotent."""
        with self._lock:
            self._closed = True
            self._stop_runs_locked("worker pool closed")
            wake_r, wake_w = self._wake_r, self._wake_w
            self._wake_r = self._wake_w = -1
        if self._dispatcher is None or wake_w < 0:
            return  # never started, or closed already
        try:
            os.write(wake_w, b"\0")
        except OSError:
            pass  # the pipe is full: a wake-up is pending already
        self._dispatcher.join(timeout=30.0)
        self.shutdown()
        os.close(wake_r)
        os.close(wake_w)

    def pool_stats(self) -> dict[str, int]:
        """Workers alive, forks so far, busy workers, jobs waiting."""
        with self._lock:
            workers = list(self._workers)
            queued = sum(len(run.pending) for run in self._runs)
        return {
            "workers": sum(1 for w in workers if w.process.is_alive()),
            "spawned": self._spawned,
            "busy": sum(1 for w in workers if w.job is not None),
            "queued": queued,
        }

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"\0")
        except OSError:
            pass  # the pipe is full: a wake-up is pending already

    def _dispatch_until_closed(self) -> None:
        try:
            self._loop(lambda: self._closed)
        finally:
            # However the loop ended, no caller may wait on it forever.
            with self._lock:
                self._closed = True
                self._stop_runs_locked("worker pool closed")

    def _stop_runs_locked(self, reason: str) -> None:
        for run in list(self._runs):
            run.stop(reason)
            self._retire_locked(run)

    def _retire_locked(self, run: _Run) -> None:
        """Forget a finished run and wake its caller (once)."""
        if run in self._runs:
            self._runs.remove(run)
            if run.inbox is not None:
                run.inbox.put(None)

    # -- settling an attempt -------------------------------------------

    def _settle(
        self, run: _Run, job: _Job, answer: tuple, stderr_tail: str
    ) -> None:
        """Count one attempt's answer, then retry ``job`` or finish it.

        A finished job is recorded in the run's outcomes and delivered
        to its ``on_outcome``; the run stops once its chaos ``sigterm``
        budget of completions is spent.
        """
        now = time.monotonic()
        elapsed = now - job.started_first
        stats = run.stats
        if answer[0] == "ok":
            outcome = JobOutcome(
                key=job.key, result=answer[1],
                attempts=job.attempt, elapsed=elapsed,
            )
        else:
            _tag, error_type, message = answer
            if error_type == "WorkerCrash":
                stats.crashes += 1
            elif error_type == "JobTimeout":
                stats.timeouts += 1
            else:
                stats.transient_errors += 1
            if job.attempt <= self.retries:
                stats.retries += 1
                job.not_before = now + backoff_delay(
                    self.backoff, job.key, job.attempt
                )
                job.attempt += 1
                run.pending.append(job)
                return
            stats.exhausted += 1
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
        run.outcomes[job.key] = outcome
        stats.completed += 1
        run.deliver(outcome)
        if run.chaos is not None and run.chaos.should_interrupt(
            stats.completed
        ):
            run.stop(f"chaos sigterm after {stats.completed} completion(s)")

    def _next_pending(self, pending: list[_Job], now: float) -> Optional[_Job]:
        """Pop the first runnable job (its backoff window has passed)."""
        for index, job in enumerate(pending):
            if job.not_before <= now:
                return pending.pop(index)
        return None

    # -- the executors -------------------------------------------------

    def run(
        self,
        items: Sequence[tuple[str, Any]],
        on_outcome: Optional[Callable[[JobOutcome], None]] = None,
        *,
        chaos: Optional[ChaosSpec] = None,
        stats: Optional[SupervisorStats] = None,
    ) -> dict[str, JobOutcome]:
        """Run every (key, payload) to a terminal outcome.

        ``jobs=1`` runs each attempt in this process; more run them on
        worker processes — this call's own, or the long-lived pool's
        once :meth:`start` was called.  ``on_outcome`` fires once per
        job, in this thread, as it reaches success or retry exhaustion
        (journaling hook).  ``chaos`` (default: the supervisor's) and
        ``stats`` (default: a fresh :class:`SupervisorStats`, also left
        in :attr:`stats`) belong to this call alone.  Raises
        :class:`SupervisorInterrupted` when the chaos spec's
        ``sigterm`` budget is hit — after the triggering outcome was
        delivered — or when the pool is closed.
        """
        run = _Run(
            pending=[_Job(key=key, payload=payload) for key, payload in items],
            chaos=chaos if chaos is not None else self.chaos,
            on_outcome=on_outcome,
            stats=stats if stats is not None else SupervisorStats(),
        )
        self.stats = run.stats
        if not run.pending:
            return run.outcomes
        if self._dispatcher is not None:
            self._run_shared(run)
        elif self.jobs == 1:
            self._run_in_process(run)
        else:
            self._run_per_call(run)
        if run.interrupted:
            raise SupervisorInterrupted(run.interrupted)
        return run.outcomes

    def _run_per_call(self, run: _Run) -> None:
        """Workers for this call only, dispatched from this thread."""
        try:
            self._workers = [
                self._spawn_worker()
                for _ in range(min(self.jobs, len(run.pending)))
            ]
            self._runs = [run]
            self._loop(lambda: run.finished)
        finally:
            self._runs = []
            self.shutdown()

    def _run_shared(self, run: _Run) -> None:
        """Queue the run on the started pool; deliver its outcomes here."""
        run.inbox = queue.SimpleQueue()
        with self._lock:
            if self._closed:
                raise SupervisorInterrupted("worker pool closed")
            self._runs.append(run)
        self._wake()
        try:
            for outcome in iter(run.inbox.get, None):
                if run.on_outcome is not None:
                    run.on_outcome(outcome)
        except BaseException:
            # This caller is leaving (an interrupt, or on_outcome
            # raised): the pool must not run its jobs on.
            with self._lock:
                run.stop("cancelled by its caller")
                self._retire_locked(run)
            raise

    def _run_in_process(self, run: _Run) -> None:
        """The ``jobs=1`` executor: every attempt runs in this process."""
        previous = chaos_module.active_spec()
        if run.chaos is not None:
            # The cache-write hook (torn writes) reads the active spec.
            chaos_module.activate(run.chaos)
        try:
            while run.pending:
                now = time.monotonic()
                job = self._next_pending(run.pending, now)
                if job is None:
                    # Everything pending is in a backoff window.
                    time.sleep(min(j.not_before for j in run.pending) - now)
                    continue
                if not job.started_first:
                    job.started_first = now
                answer, stderr_tail = self._attempt(run.chaos, job)
                self._settle(run, job, answer, stderr_tail)
        finally:
            if run.chaos is not None:
                chaos_module.activate(previous)

    def _attempt(
        self, chaos: Optional[ChaosSpec], job: _Job
    ) -> tuple[tuple, str]:
        """One in-process attempt: its answer and a traceback tail."""
        if chaos is not None:
            action = chaos.worker_action(job.key, job.attempt)
            if action is not None:
                return _injected(action, job.key, job.attempt), ""
        try:
            with _AlarmDeadline(self.timeout):
                return ("ok", self.worker_fn(job.payload)), ""
        except _DeadlineExpired:
            return (
                "error", "JobTimeout",
                f"no result within {self.timeout:.1f}s (in-process deadline)",
            ), ""
        except Exception as exc:  # noqa: BLE001 — answered, not hidden
            return (
                ("error", type(exc).__name__, str(exc)),
                compact_tail(traceback.format_exc(), self.stderr_limit),
            )

    def _dispatch_locked(self, now: float) -> float:
        """Give each idle worker the oldest runnable job of the run with
        the fewest jobs in flight.

        Returns when the earliest backoff window left waiting for an
        idle worker ends (``inf`` when none is).
        """
        idle = [w for w in self._workers if w.job is None]
        for worker in idle:
            runnable = [
                run for run in self._runs
                if any(job.not_before <= now for job in run.pending)
            ]
            if not runnable:
                break
            # min() keeps the earliest run on ties: submission order.
            run = min(runnable, key=lambda r: r.in_flight)
            job = self._next_pending(run.pending, now)
            assert job is not None
            self._assign(worker, run, job, now)
        if all(w.job is not None for w in self._workers):
            return math.inf
        return min(
            (job.not_before for run in self._runs for job in run.pending),
            default=math.inf,
        )

    def _assign(
        self, worker: _Worker, run: _Run, job: _Job, now: float
    ) -> None:
        if not job.started_first:
            job.started_first = now
        try:
            worker.stderr_offset = worker.stderr_path.stat().st_size
        except OSError:
            worker.stderr_offset = 0
        worker.run = run
        worker.job = job
        run.in_flight += 1
        # timeout 0 is the documented escape hatch: no deadline at all.
        worker.deadline = (
            now + self.timeout if self.timeout > 0 else math.inf
        )
        chaos_text = run.chaos.text if run.chaos is not None else ""
        try:
            worker.conn.send((job.key, job.payload, job.attempt, chaos_text))
        except (OSError, ValueError):
            pass  # the worker died idle: _poll answers WorkerCrash

    def _poll(
        self, worker: _Worker, ready: set[Any], now: float
    ) -> Optional[tuple]:
        """The answer for ``worker``'s job, or ``None`` while it runs."""
        if worker.conn in ready:
            try:
                return worker.conn.recv()
            except (EOFError, OSError):
                # The result pipe is gone — worker died mid-send, or
                # closed its fd while staying alive.  Either way this is
                # a crash *now*: waiting for the sentinel would
                # busy-spin (wait() re-reports the dead pipe every
                # iteration) until the deadline.
                return (
                    "error", "WorkerCrash",
                    "result pipe closed without a result "
                    f"(exit code {worker.process.exitcode})",
                )
        if not worker.process.is_alive():
            return (
                "error", "WorkerCrash",
                f"worker exited with code {worker.process.exitcode} "
                "without returning a result",
            )
        if now >= worker.deadline:
            return (
                "error", "JobTimeout",
                f"no result within {self.timeout:.1f}s (worker terminated)",
            )
        return None

    def _loop(self, until: Callable[[], bool]) -> None:
        """The ``jobs > 1`` executor: dispatch attempts to the workers
        and settle their answers until ``until()`` holds."""
        while not until():
            now = time.monotonic()
            for index, worker in enumerate(self._workers):
                if worker.job is None and not worker.process.is_alive():
                    self._replace_worker(index)
            with self._lock:
                wake_at = self._dispatch_locked(now)
            busy = [w for w in self._workers if w.job is not None]
            # The earliest deadline or backoff end bounds the wait;
            # sentinels detect death; the self-pipe announces new runs.
            timeout = min(
                [1.0, wake_at - now] + [w.deadline - now for w in busy]
            )
            sources: list[Any] = [w.conn for w in busy]
            sources.extend(w.process.sentinel for w in busy)
            # close() closes the self-pipe only after this loop ended.
            wake_r = self._wake_r
            if wake_r >= 0:
                sources.append(wake_r)
            if not sources:
                time.sleep(max(0.0, timeout))
                continue
            ready = set(mp_connection.wait(sources, timeout=max(0.0, timeout)))
            if wake_r in ready:
                os.read(wake_r, 4096)
            now = time.monotonic()

            for index, worker in enumerate(self._workers):
                run, job = worker.run, worker.job
                if run is None or job is None:
                    continue
                answer = self._poll(worker, ready, now)
                if answer is None:
                    continue
                worker.run = worker.job = None
                stderr_tail = ""
                if answer[0] == "error":
                    stderr_tail = self._stderr_tail(worker)
                    if answer[1] in _LOST:
                        # Dead or hung: kill and respawn before retrying.
                        self._replace_worker(index)
                with self._lock:
                    run.in_flight -= 1
                    if not run.interrupted:
                        self._settle(run, job, answer, stderr_tail)
                    if run.finished:
                        self._retire_locked(run)
