"""Generic (application × policy × oversubscription) experiment engine.

Every figure/table harness builds the
:class:`~repro.scenarios.spec.MatrixSpec` grids it needs, runs them
through :func:`run_scenario`, and renders from the returned
:class:`ResultMatrix` objects; :func:`run_spec` runs one cell in this
process for the single-cell diagnostics (``run``, ``trace``, ``stats``,
``check``).  Policies are constructed per run by name; RRIP receives the
paper's per-pattern configuration (distant insertion and a 128-fault
delay threshold for type II applications, long insertion and no
threshold otherwise — Section V-B), and CLOCK-Pro is sized to the run's
capacity with the paper's fixed ``m_c = 128``.
"""

from __future__ import annotations

import atexit
import contextvars
import math
import os
import signal
import sys
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from repro.core.hpe import HPEConfig, HPEPolicy
from repro import check as check_module
from repro import obs as obs_module
from repro import resil as resil_module
from repro.obs import MetricsRegistry, Observation
from repro.resil import (
    ChaosSpec,
    JobFailure,
    JobOutcome,
    MatrixInterrupted,
    RunJournal,
    SupervisorInterrupted,
    SupervisorStats,
    WorkerSupervisor,
)
from repro.resil import chaos as resil_chaos
from repro.resil import journal as resil_journal
from repro.scenarios.spec import (
    DEFAULT_SEED,
    PAPER_FAMILY,
    MatrixSpec,
    ScenarioError,
    ScenarioSpec,
)
from repro.sim import cache as sim_cache
from repro.policies import (
    ARCPolicy,
    CARPolicy,
    ClockProPolicy,
    EvictionPolicy,
    FIFOPolicy,
    IdealPolicy,
    LFUPolicy,
    LRUPolicy,
    RandomPolicy,
    RRIPConfig,
    RRIPPolicy,
    WSClockPolicy,
)
from repro.sim.engine import UVMSimulator
from repro.sim.results import SimulationResult
from repro.workloads.base import Trace
from repro.workloads.suite import ApplicationSpec, get_application

#: Policy names accepted by :func:`make_policy`, in report order.
POLICY_NAMES = (
    "ideal", "lru", "random", "rrip", "clock-pro", "hpe",
    "fifo", "lfu", "arc", "car", "wsclock",
)

#: The two oversubscription rates the paper evaluates (Section V).
PAPER_RATES = (0.75, 0.50)

# DEFAULT_SEED is defined in repro.scenarios.spec (the identity
# authority) and re-exported here for the harnesses that import it.

#: Environment variable selecting the default worker count for
#: :func:`run_scenario` (``0`` means "one worker per CPU").
ENV_JOBS = "REPRO_JOBS"


def make_policy(
    name: str,
    capacity: int,
    spec: Optional[ApplicationSpec] = None,
    hpe_config: Optional[HPEConfig] = None,
    seed: int = DEFAULT_SEED,
) -> EvictionPolicy:
    """Construct a fresh policy instance for one run."""
    name = name.lower()
    if name == "lru":
        return LRUPolicy()
    if name == "random":
        return RandomPolicy(seed=seed)
    if name == "rrip":
        thrashing = spec.is_thrashing_type if spec is not None else False
        return RRIPPolicy(RRIPConfig.for_pattern(thrashing))
    if name == "clock-pro":
        return ClockProPolicy(capacity=capacity)
    if name == "ideal":
        return IdealPolicy()
    if name == "hpe":
        return HPEPolicy(hpe_config or HPEConfig())
    if name == "fifo":
        return FIFOPolicy()
    if name == "lfu":
        return LFUPolicy()
    if name == "arc":
        return ARCPolicy(capacity=capacity)
    if name == "car":
        return CARPolicy(capacity=capacity)
    if name == "wsclock":
        return WSClockPolicy()
    raise ValueError(f"unknown policy {name!r}; known: {', '.join(POLICY_NAMES)}")


@dataclass(frozen=True)
class RunKey:
    """Identity of one simulation run."""

    app: str
    policy: str
    rate: float


class TraceCache:
    """In-memory LRU of built traces per (abbr, seed, scale).

    A miss builds the trace: building is cheaper than reading a stored
    copy back, so nothing is written to disk.  Each process keeps its
    own cache (a pool worker fills its own as it runs cells) and, since
    a trace is a pure function of its key, no entry can go stale.  The
    cache is bounded: the full 23-application suite fits comfortably,
    but long-lived sessions sweeping seeds/scales do not grow without
    limit.
    """

    #: Default bound — the whole suite at two (seed, scale) settings.
    DEFAULT_MAX_ENTRIES = 64

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._cache: OrderedDict[tuple[str, int, float], Trace] = OrderedDict()

    def get(self, abbr: str, seed: int = DEFAULT_SEED, scale: float = 1.0) -> Trace:
        key = (abbr.upper(), seed, scale)
        trace = self._cache.get(key)
        if trace is not None:
            self._cache.move_to_end(key)
            return trace
        trace = get_application(abbr).build(seed=seed, scale=scale)
        self._cache[key] = trace
        while len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)
        return trace

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)


#: Module-level cache shared by all harnesses in one process.
_TRACES = TraceCache()


def clear_trace_cache() -> None:
    """Drop every in-memory trace (the CLI ``cache clear`` entry point)."""
    _TRACES.clear()


#: True while :func:`_run_job` runs a cell.  The matrix that dispatched
#: the cell looked it up and missed, so :func:`run_spec` simulates and
#: stores without repeating the lookup.
_DISPATCHED: contextvars.ContextVar[bool] = contextvars.ContextVar(
    "dispatched", default=False
)


def run_spec(
    spec: ScenarioSpec,
    *,
    use_cache: Optional[bool] = None,
    obs=None,
) -> SimulationResult:
    """Run (or serve from cache) the simulation ``spec`` describes.

    The cached entry point: the result is memoised under
    ``spec.digest()`` — the SHA-256 of the spec's canonical identity
    string — so every caller that goes through a spec shares entries by
    construction.  A cell a matrix dispatched (:func:`_run_job`) is not
    looked up again, only simulated and stored.  ``use_cache=False``
    forces a fresh simulation for this call only.

    ``obs`` selects observability for this run: ``None`` consults the
    process-wide setting (``REPRO_OBS`` / ``--obs``), ``False`` forces
    it off, ``True`` builds a fresh registry-only
    :class:`~repro.obs.Observation`, and an ``Observation`` instance is
    used as-is (event traces included).  Observed runs always simulate —
    a cached result has no trace or time-series to offer — and are not
    stored back, keeping cache entries free of observation payloads.
    """
    if spec.family != PAPER_FAMILY:
        raise ScenarioError(
            f"workload family {spec.family!r} has no runnable backend yet "
            f"(only {PAPER_FAMILY!r} scenarios simulate)"
        )
    if obs is None:
        obs = obs_module.enabled()
    if obs is False:
        observation = None
    elif obs is True:
        observation = Observation()
    else:
        observation = obs
    caching = sim_cache.cache_enabled() if use_cache is None else use_cache
    if observation is not None:
        caching = False
    digest = spec.digest()
    if caching and not _DISPATCHED.get():
        cached = sim_cache.result_cache().get(digest)
        if cached is not None:
            return cached
    app_spec = get_application(spec.workload)
    trace = _TRACES.get(spec.workload, spec.seed, spec.scale)
    capacity = trace.capacity_for(spec.rate)
    policy_obj = make_policy(
        spec.policy, capacity, spec=app_spec,
        hpe_config=spec.hpe_config, seed=spec.seed,
    )
    simulator = UVMSimulator.for_scenario(
        spec, policy_obj, capacity, obs=observation
    )
    result = simulator.run(
        trace.pages, workload_name=app_spec.abbr, fast=spec.fastpath
    )
    result.extras["policy"] = policy_obj
    result.extras["pattern_type"] = app_spec.pattern_type
    result.extras["rate"] = spec.rate
    result.extras["scenario_digest"] = digest
    if observation is not None:
        sim_cache.result_cache().stats.observe_into(observation.registry)
        result.extras["metrics"] = observation.registry.to_dict()
    if caching:
        try:
            sim_cache.result_cache().put(digest, result)
        except (OSError, RecursionError):
            pass  # an unwritable/unpicklable entry must never fail the run
    return result


@dataclass
class ResultMatrix:
    """Results keyed by (app, policy, rate) with derived-metric helpers.

    A matrix can be *degraded*: cells whose retries were exhausted carry
    an explicit :class:`~repro.resil.JobFailure` in :attr:`failures`
    instead of a result.  Derived-metric helpers (:meth:`speedup`,
    :meth:`eviction_ratio`) return ``nan`` for any ratio touching a
    failed cell — the downstream means already skip NaN with a warning —
    so tables and figures render with flagged holes instead of raising.
    """

    results: dict[RunKey, SimulationResult] = field(default_factory=dict)
    #: Union of the per-run metric registries (observed runs only).
    #: Parallel workers serialise their registries inside
    #: ``extras["metrics"]``; :meth:`put` folds them back here, so the
    #: parent process sees one merged registry for the whole matrix.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Cells whose retries were exhausted (explicit, never raising).
    failures: dict[RunKey, JobFailure] = field(default_factory=dict)
    #: The run id whose journal recorded this matrix (when journaled).
    run_id: str = ""
    #: Every key in fold order (results and failures interleaved).
    _order: list[RunKey] = field(default_factory=list)

    def put(self, key: RunKey, result: SimulationResult) -> None:
        if key not in self.results and key not in self.failures:
            self._order.append(key)
        self.failures.pop(key, None)
        self.results[key] = result
        run_metrics = result.extras.get("metrics")
        if run_metrics:
            self.metrics.merge(MetricsRegistry.from_dict(run_metrics))

    def record_failure(self, key: RunKey, failure: JobFailure) -> None:
        """Mark one cell as exhausted — the matrix degrades, not raises."""
        if key not in self.results and key not in self.failures:
            self._order.append(key)
        self.failures[key] = failure

    @property
    def degraded(self) -> bool:
        """Does any cell carry a failure instead of a result?"""
        return bool(self.failures)

    def failure_lines(self) -> list[str]:
        """One human-readable line per failed cell, in fold order."""
        return [
            self.failures[key].render()
            for key in self._order
            if key in self.failures
        ]

    def get(self, app: str, policy: str, rate: float) -> SimulationResult:
        return self.results[RunKey(app.upper(), policy.lower(), rate)]

    def lookup(
        self, app: str, policy: str, rate: float
    ) -> Optional[SimulationResult]:
        """The cell's result, or ``None`` when it failed (or is absent)."""
        return self.results.get(RunKey(app.upper(), policy.lower(), rate))

    def speedup(self, app: str, policy: str, baseline: str, rate: float) -> float:
        """IPC of ``policy`` over ``baseline`` (``nan`` on a failed cell)."""
        cell = self.lookup(app, policy, rate)
        base = self.lookup(app, baseline, rate)
        if cell is None or base is None:
            return float("nan")
        return cell.speedup_over(base)

    def eviction_ratio(self, app: str, policy: str, baseline: str, rate: float) -> float:
        """Evictions relative to ``baseline`` (``nan`` on a failed cell)."""
        cell = self.lookup(app, policy, rate)
        base = self.lookup(app, baseline, rate)
        if cell is None or base is None:
            return float("nan")
        return cell.evictions_normalized_to(base)

    def apps(self) -> list[str]:
        seen: list[str] = []
        for key in self._order if self._order else self.results:
            if key.app not in seen:
                seen.append(key.app)
        return seen


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count for :func:`run_scenario`.

    ``None`` defers to the ``REPRO_JOBS`` environment variable (default
    1, i.e. in process); ``0`` or a negative value means one worker per
    CPU.
    """
    if jobs is None:
        raw = os.environ.get(ENV_JOBS, "").strip()
        try:
            jobs = int(raw) if raw else 1
        except ValueError:
            jobs = 1
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def _run_job(job: tuple) -> SimulationResult:
    """Supervisor entry point: one scenario-cell simulation.

    Runs in a worker process, or in this process when ``jobs=1``.
    Lives at module level so it pickles under any multiprocessing start
    method.  Only the frozen :class:`ScenarioSpec` and the observe flag
    cross the process boundary inbound — the worker builds the traces
    it needs into its own :class:`TraceCache` — and only the
    :class:`SimulationResult` crosses back.  The caller already looked
    the cell up, so it is simulated and stored, never served from this
    process's cache.
    """
    cell, observe = job
    token = _DISPATCHED.set(True)
    try:
        # Workers observe registry-only (obs=True): an Observation
        # carrying an open JSONL handle must never cross the process
        # boundary.  The registry travels back serialised inside
        # ``extras["metrics"]``.
        return run_spec(cell, obs=bool(observe))
    finally:
        _DISPATCHED.reset(token)


def start_cell_pool(
    jobs: int,
    *,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    backoff: Optional[float] = None,
) -> WorkerSupervisor:
    """A started long-lived pool of ``jobs`` (>= 2) workers that run
    scenario cells.

    Hand it to :func:`run_scenario` as ``supervisor`` from any number of
    threads, and :meth:`~repro.resil.WorkerSupervisor.close` it when
    done.  Create it before the process starts other threads: the
    workers are forked here.
    """
    return WorkerSupervisor(
        _run_job, jobs, timeout=timeout, retries=retries, backoff=backoff,
    ).start()


def _fork_state(
    jobs: int,
    timeout: Optional[float],
    retries: Optional[int],
    backoff: Optional[float],
) -> tuple:
    """What a cell pool's workers copy at fork and a job does not carry.

    Observation and chaos travel with each job; everything here is read
    in the worker from the state it was forked with, or fixes the
    pool's own behaviour.
    """
    settings = resil_module.resolve_settings(
        worker_timeout=timeout, retries=retries, backoff=backoff
    )
    return (
        jobs, settings.worker_timeout, settings.retries, settings.backoff,
        sim_cache.cache_enabled(), sim_cache.cache_dir(),
        check_module.sanitize_enabled(), check_module.sanitize_fast(),
        check_module.sanitize_every(),
        tuple(sorted(
            (name, value) for name, value in os.environ.items()
            if name.startswith("REPRO_")
        )),
    )


class _CellPoolLender:
    """The one long-lived cell pool a process lends to :func:`run_scenario`.

    Started by the first ``jobs >= 2`` call that brings no pool of its
    own and reused while :func:`_fork_state` is unchanged.  A call whose
    state differs replaces the pool when it is idle, and otherwise gets
    a private pool that :meth:`give_back` closes, so no run is
    interrupted by another caller's settings.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.pool: Optional[WorkerSupervisor] = None
        self._state: tuple = ()
        self._runs = 0

    def borrow(
        self,
        jobs: int,
        timeout: Optional[float],
        retries: Optional[int],
        backoff: Optional[float],
    ) -> WorkerSupervisor:
        state = _fork_state(jobs, timeout, retries, backoff)
        with self._lock:
            if self.pool is not None and self._state != state:
                if self._runs:
                    return start_cell_pool(
                        jobs, timeout=timeout, retries=retries,
                        backoff=backoff,
                    )
                self._close_locked()
            if self.pool is None:
                self.pool = start_cell_pool(
                    jobs, timeout=timeout, retries=retries, backoff=backoff,
                )
                self._state = state
            self._runs += 1
            return self.pool

    def give_back(self, pool: WorkerSupervisor, interrupted: bool) -> None:
        """End one run on ``pool``: an interrupted run that was the last
        one on the lent pool closes it, and a private pool is closed."""
        with self._lock:
            if pool is self.pool:
                self._runs -= 1
                if interrupted and not self._runs:
                    self._close_locked()
                return
        # A private pool, or the lent one, closed (and maybe replaced)
        # while this run was on it: closing is idempotent.
        pool.close()

    def close(self) -> None:
        with self._lock:
            self._close_locked()

    def _close_locked(self) -> None:
        if self.pool is not None:
            self.pool.close()
        self.pool = None
        self._runs = 0

    def forget(self) -> None:
        """Drop the pool without touching it (a forked child's view of
        its parent's pool: closing it would stop the parent's workers)."""
        self._lock = threading.Lock()
        self.pool = None
        self._runs = 0


_CELL_POOL = _CellPoolLender()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_CELL_POOL.forget)


def close_cell_pool() -> None:
    """Close the pool :func:`run_scenario` lends to ``jobs >= 2`` calls,
    terminating its workers (a no-op when none is open).  The next such
    call starts a new one; runs still on it are interrupted."""
    _CELL_POOL.close()


atexit.register(close_cell_pool)


class _MatrixSigTerm(BaseException):
    """Internal: SIGTERM converted to an exception for clean shutdown."""


def run_scenario(
    spec: MatrixSpec,
    *,
    progress: bool = False,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    backoff: Optional[float] = None,
    chaos: Optional[Union[ChaosSpec, str]] = None,
    journal: Optional[bool] = None,
    supervisor: Optional[WorkerSupervisor] = None,
) -> ResultMatrix:
    """Run every cell of ``spec`` — the scenario-first matrix engine.

    ``spec`` is the single identity authority for the whole run: the
    journal run id is ``spec.run_id()``, the ``run_start`` record
    carries ``spec.spec_hash()``, and each cell is cached under its
    :meth:`~repro.scenarios.spec.ScenarioSpec.digest`.

    Every (rate × app × policy) cell goes through a
    :class:`~repro.resil.WorkerSupervisor`: each job gets a wall-clock
    ``timeout`` and up to ``retries`` extra attempts with exponential
    backoff, a crash or hang costs one retry (never the matrix), and
    results are folded in deterministic key order whatever the job
    count.  ``jobs=1`` runs the cells in this process, where a SIGALRM
    interval timer enforces the timeout (``REPRO_WORKER_TIMEOUT=0``
    disables enforcement at every job count — the escape hatch for
    debugging a slow cell).

    When the persistent cache is on (and the run is not observed), every
    completion is recorded in an append-only run journal keyed by the
    cache digest; an interrupted run — ``KeyboardInterrupt``, SIGTERM,
    or an injected chaos interrupt — shuts down cleanly (workers
    terminated, journal and metrics flushed) and raises
    :class:`~repro.resil.MatrixInterrupted`; re-running the same spec
    (or ``hpe-repro resume <run-id>``) picks up from the completed jobs
    and produces bit-identical results to an uninterrupted run.

    Cells whose retries are exhausted become explicit failure records on
    the matrix (see :class:`ResultMatrix`) — never an exception.
    ``chaos`` injects deterministic faults for testing (``None`` reads
    ``REPRO_CHAOS``); see :mod:`repro.resil.chaos` for the grammar.
    Progress lines go to stderr so piped harness output is never
    corrupted.

    ``supervisor`` sends the cells through a started long-lived pool
    (:func:`start_cell_pool`): the pool's size, timeout, retries and
    backoff apply, so ``jobs``, ``timeout``, ``retries`` and ``backoff``
    are ignored, while ``chaos`` and the ``resil.*`` gauges stay this
    call's.  Closing the pool interrupts the call
    (:class:`~repro.resil.MatrixInterrupted`).

    Without one, ``jobs >= 2`` borrows the process's own long-lived
    cell pool.  The first such call starts it; later calls reuse it
    while the state its workers copied at fork is unchanged: the worker
    count, the resolved timeout, retries and backoff, the result-cache
    switch and directory, the sanitizer switches and every ``REPRO_*``
    environment variable.  A call whose state differs closes the idle
    pool and starts a new one, or, when another thread's run is on it,
    runs on a private pool of ``jobs`` workers that is closed when the
    call ends.  An interrupted run closes the borrowed pool (unless
    another run is still on it); :func:`close_cell_pool` closes it, and
    so does interpreter exit.  Long-lived workers build the traces they
    use into their own :class:`TraceCache`; this process builds none
    for them.
    """
    cells = spec.cells()
    keys = [
        RunKey(cell.workload, cell.policy, cell.rate) for cell in cells
    ]
    cell_specs = dict(zip(keys, cells))
    matrix = ResultMatrix()
    if not keys:
        # No work: return the empty matrix before any supervisor exists.
        return matrix
    jobs = resolve_jobs(jobs)
    observing = obs_module.enabled()
    chaos_spec = resil_chaos.resolve(chaos)
    caching = sim_cache.cache_enabled() and not observing
    run_id = spec.run_id()
    spec_hash = spec.spec_hash()
    matrix.run_id = run_id
    journaling = (
        journal if journal is not None
        else resil_module.journal_enabled() and caching
    )
    digests = {key: cell_specs[key].digest() for key in keys}

    def note(key: RunKey, suffix: str = "...") -> None:
        if progress:
            print(
                f"running {key.app} / {key.policy} @ {key.rate:.0%} {suffix}",
                file=sys.stderr, flush=True,
            )

    run_journal: Optional[RunJournal] = None
    if journaling:
        run_journal = RunJournal(run_id)
        run_journal.append(
            "run_start",
            schema=resil_journal.JOURNAL_SCHEMA_VERSION,
            run_id=run_id,
            spec_hash=spec_hash,
            family=spec.family,
            policies=list(spec.policies),
            rates=list(spec.rates),
            apps=list(spec.apps),
            seed=spec.seed,
            scale=spec.scale,
            prefetch=spec.prefetch_degree,
            total_jobs=len(keys),
        )

    # Terminal-outcome tallies, updated as outcomes land (the matrix
    # itself is only folded after the supervisor finishes, so it
    # undercounts at interrupt time).
    counts = {"done": 0, "failed": 0}

    def journal_done(key: RunKey, attempts: int, elapsed: float) -> None:
        counts["done"] += 1
        if run_journal is not None:
            run_journal.append(
                "job_done",
                app=key.app, policy=key.policy, rate=key.rate,
                digest=digests[key], cached=caching,
                attempts=attempts, elapsed=round(elapsed, 6),
            )

    def finalize(interrupted: bool) -> None:
        """Flush the journal (and its terminal record) exactly once."""
        if run_journal is None:
            return
        if interrupted:
            run_journal.append(
                "run_interrupted",
                completed=counts["done"],
                remaining=len(keys) - counts["done"] - counts["failed"],
            )
        else:
            run_journal.append(
                "run_end",
                completed=counts["done"], failed=counts["failed"],
            )
        run_journal.close()

    # Resume/warm path: serve any already-cached cell without touching
    # the supervisor.  This is what makes an interrupted run resumable —
    # the journal records completions by cache digest, and the cache
    # serves them bit-identically on the next invocation of the spec.
    remaining: list[RunKey] = []
    for key in keys:
        cached_result = (
            sim_cache.result_cache().get(digests[key]) if caching else None
        )
        if cached_result is not None:
            note(key, "(cached)")
            matrix.put(key, cached_result)
            journal_done(key, attempts=0, elapsed=0.0)
        else:
            remaining.append(key)
    if not remaining:
        finalize(interrupted=False)
        return matrix

    job_keys = {key: f"{key.app}|{key.policy}|{key.rate!r}" for key in remaining}
    by_job_key = {job_key: key for key, job_key in job_keys.items()}

    def on_outcome(outcome: JobOutcome) -> None:
        key = by_job_key[outcome.key]
        note(key)
        failure = outcome.failure
        if failure is None:
            journal_done(key, attempts=outcome.attempts, elapsed=outcome.elapsed)
            return
        counts["failed"] += 1
        if run_journal is not None:
            run_journal.append(
                "job_failed",
                app=key.app, policy=key.policy, rate=key.rate,
                digest=digests[key], error=failure.error_type,
                message=failure.message[:500], attempts=failure.attempts,
                elapsed=round(failure.elapsed, 6),
            )

    def install_sigterm() -> Optional[object]:
        def handler(_signum: int, _frame: object) -> None:
            raise _MatrixSigTerm()
        if threading.current_thread() is not threading.main_thread():
            return None
        try:
            return signal.signal(signal.SIGTERM, handler)
        except (ValueError, OSError):
            return None

    def restore_sigterm(previous: Optional[object]) -> None:
        if previous is not None:
            try:
                signal.signal(signal.SIGTERM, previous)
            except (ValueError, OSError, TypeError):
                pass

    # Without a pool of its own, a jobs > 1 call borrows a started one
    # (the process's long-lived pool, or a private pool while that one is
    # busy under other settings) — even when a single cell remains, since
    # only a process can be killed when a cell hangs in C code.  jobs=1
    # runs the cells in this process.
    borrowed = None
    if supervisor is not None:
        pool = supervisor
    elif jobs > 1:
        pool = borrowed = _CELL_POOL.borrow(jobs, timeout, retries, backoff)
    else:
        pool = WorkerSupervisor(
            _run_job, 1, timeout=timeout, retries=retries, backoff=backoff,
        )
    stats = SupervisorStats()
    interrupted = False
    previous_handler = install_sigterm()
    try:
        # The observe flag travels in the payload: a long-lived worker
        # was forked before this call, and a spawn-context worker
        # re-imports the world, so neither sees a configure(enabled=True)
        # made by the CLI in this process.
        outcomes = pool.run(
            [
                (job_keys[key], (cell_specs[key], observing))
                for key in remaining
            ],
            on_outcome=on_outcome, chaos=chaos_spec, stats=stats,
        )
    except (KeyboardInterrupt, SupervisorInterrupted, _MatrixSigTerm) as exc:
        # Clean shutdown: the workers are terminated (a borrowed pool
        # is closed below), the journal gets its interruption record and
        # fsync, and the caller gets a typed, resumable error.
        interrupted = True
        finalize(interrupted=True)
        done = counts["done"] + counts["failed"]
        raise MatrixInterrupted(run_id, done, len(keys) - done) from exc
    finally:
        restore_sigterm(previous_handler)
        if borrowed is not None:
            _CELL_POOL.give_back(borrowed, interrupted)

    for key in remaining:
        outcome = outcomes[job_keys[key]]
        if outcome.failure is None:
            matrix.put(key, outcome.result)
        else:
            matrix.record_failure(key, outcome.failure)
    # Gauges only when there is something to report: a clean, unobserved
    # matrix keeps its metrics registry empty (the obs contract).
    for name, value in (
        ("resil.retries", stats.retries),
        ("resil.crashes", stats.crashes),
        ("resil.timeouts", stats.timeouts),
        ("resil.transient_errors", stats.transient_errors),
    ):
        if value:
            matrix.metrics.set_gauge(name, value)
    if matrix.failures:
        matrix.metrics.set_gauge("resil.degraded_cells", len(matrix.failures))
        matrix.metrics.set_gauge("resil.completed_cells", len(matrix.results))
    finalize(interrupted=False)
    return matrix


#: Call sites that already warned about dropped mean inputs, keyed by
#: ``(helper, filename, lineno)``.  A figure sweeping 50 cells against a
#: degenerate baseline would otherwise repeat the identical warning 50
#: times, burying everything else — the *first* occurrence carries all
#: the signal, so each call site warns once per process.
_MEAN_WARNED: "set[tuple[str, str, int]]" = set()


def reset_mean_warnings() -> None:
    """Forget which call sites have warned (test isolation hook)."""
    _MEAN_WARNED.clear()


def _warn_mean_once(helper: str, message: str) -> None:
    """Emit ``message`` unless this caller's call site already warned."""
    caller = sys._getframe(2)
    site = (helper, caller.f_code.co_filename, caller.f_lineno)
    if site in _MEAN_WARNED:
        return
    _MEAN_WARNED.add(site)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def geometric_mean(values: Iterable[float], *, strict: bool = False) -> float:
    """Geometric mean over the positive, finite values.

    Non-positive values are undefined under a geometric mean, and ``nan``
    marks a ratio that does not exist (e.g. a zero-IPC baseline in
    :meth:`~repro.sim.results.SimulationResult.speedup_over`); dropping
    either silently could let a degenerate run *inflate* a reported
    mean, so any dropped value triggers a :class:`RuntimeWarning` — or a
    :class:`ValueError` under ``strict=True``.  (``nan > 0`` is false,
    so the positivity filter removes NaN too.)  The warning fires once
    per call site per process; see :func:`reset_mean_warnings`.  With no
    value left the mean is ``nan``: there is nothing to average.
    """
    values = list(values)
    logs = [math.log(v) for v in values if v > 0]
    dropped = len(values) - len(logs)
    if dropped:
        nans = sum(1 for v in values if math.isnan(v))
        detail = f" ({nans} NaN)" if nans else ""
        message = (
            f"geometric_mean: dropping {dropped} non-positive or "
            f"undefined value(s){detail} out of {len(values)}; the "
            "reported mean covers only the positive entries"
        )
        if strict:
            raise ValueError(message)
        _warn_mean_once("geometric_mean", message)
    if not logs:
        return math.nan
    return math.exp(sum(logs) / len(logs))


def arithmetic_mean(values: Iterable[float]) -> float:
    """Plain mean (the paper reports arithmetic averages).

    ``nan`` entries — undefined ratios from degenerate baselines — are
    skipped with a :class:`RuntimeWarning` instead of poisoning the
    whole mean.  The warning fires once per call site per process; see
    :func:`reset_mean_warnings`.  With no value left the mean is ``nan``
    (a fully degraded row must not read as a measured 0).
    """
    values = list(values)
    kept = [v for v in values if not math.isnan(v)]
    if len(kept) != len(values):
        _warn_mean_once(
            "arithmetic_mean",
            f"arithmetic_mean: skipping {len(values) - len(kept)} NaN "
            f"value(s) out of {len(values)}",
        )
    if not kept:
        return math.nan
    return sum(kept) / len(kept)
