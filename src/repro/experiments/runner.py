"""Generic (application × policy × oversubscription) experiment engine.

Every figure/table harness is a thin layer over :func:`run_application`
and :class:`ResultMatrix`.  Policies are constructed per run by name; RRIP
receives the paper's per-pattern configuration (distant insertion and a
128-fault delay threshold for type II applications, long insertion and no
threshold otherwise — Section V-B), and CLOCK-Pro is sized to the run's
capacity with the paper's fixed ``m_c = 128``.
"""

from __future__ import annotations

import math
import os
import signal
import sys
import threading
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from repro.core.hpe import HPEConfig, HPEPolicy
from repro import obs as obs_module
from repro import resil as resil_module
from repro.obs import MetricsRegistry, Observation
from repro.resil import (
    ChaosSpec,
    JobFailure,
    MatrixInterrupted,
    RunJournal,
    SupervisorInterrupted,
    WorkerSupervisor,
)
from repro.resil import chaos as resil_chaos
from repro.resil import journal as resil_journal
from repro.resil import supervisor as resil_supervisor
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
from repro.sim.config import GPUConfig
from repro.sim.engine import UVMSimulator
from repro.sim.results import SimulationResult
from repro.workloads.base import Trace
from repro.workloads.suite import APPLICATION_ORDER, ApplicationSpec, get_application

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
#: :func:`run_matrix` (``0`` means "one worker per CPU").
ENV_JOBS = "REPRO_JOBS"

#: Environment variable gating trace sharing in parallel matrices
#: (default on; ``0``/``false``/``off`` disable): the parent builds each
#: trace once, forked workers inherit it and workers of other start
#: methods map it from a shared-memory store.
ENV_SHARED_TRACES = "REPRO_SHARED_TRACES"


def shared_traces_enabled() -> bool:
    """Should parallel matrices share the parent's traces with workers?"""
    raw = os.environ.get(ENV_SHARED_TRACES, "").strip().lower()
    return raw not in ("0", "false", "off", "no")


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

    Misses fall through to the persistent disk memo
    (:func:`repro.sim.cache.load_or_build_trace`), so a trace is
    generated at most once per machine.  The in-memory layer is bounded:
    the full 23-application suite fits comfortably, but long-lived
    sessions sweeping seeds/scales no longer grow without limit.
    """

    #: Default bound — the whole suite at two (seed, scale) settings.
    DEFAULT_MAX_ENTRIES = 64

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._cache: OrderedDict[tuple[str, int, float], Trace] = OrderedDict()
        #: Optional :class:`repro.workloads.trace_io.TraceStore` consulted
        #: on a miss before the disk memo (worker processes of a parallel
        #: matrix attach the parent's published store here).
        self.store = None

    def attach_store(self, store) -> None:
        """Serve future misses from a shared-memory trace store first."""
        self.store = store

    def get(self, abbr: str, seed: int = DEFAULT_SEED, scale: float = 1.0) -> Trace:
        key = (abbr.upper(), seed, scale)
        trace = self._cache.get(key)
        if trace is not None:
            self._cache.move_to_end(key)
            return trace
        if self.store is not None:
            trace = self.store.get(abbr, seed, scale)
        if trace is None:
            trace = sim_cache.load_or_build_trace(abbr, seed, scale)
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


def run_application(
    app: str,
    policy: str,
    rate: float,
    *,
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    hpe_config: Optional[HPEConfig] = None,
    prefetch_degree: int = 0,
    use_cache: Optional[bool] = None,
    obs=None,
) -> SimulationResult:
    """Run one (application, policy, oversubscription-rate) simulation.

    A thin adapter over :func:`run_spec`: the arguments are folded into
    a :class:`~repro.scenarios.spec.ScenarioSpec`, whose canonical form
    keys the persistent cache (see :mod:`repro.sim.cache`).
    ``use_cache=False`` forces a fresh simulation for this call only.

    ``obs`` selects observability for this run: ``None`` consults the
    process-wide setting (``REPRO_OBS`` / ``--obs``), ``False`` forces
    it off, ``True`` builds a fresh registry-only
    :class:`~repro.obs.Observation`, and an ``Observation`` instance is
    used as-is (event traces included).  Observed runs always simulate —
    a cached result has no trace or time-series to offer — and are not
    stored back, keeping cache entries free of observation payloads.
    """
    return run_spec(
        ScenarioSpec(
            workload=app,
            policy=policy,
            rate=rate,
            seed=seed,
            scale=scale,
            config=config,
            hpe_config=hpe_config,
            prefetch_degree=prefetch_degree,
        ),
        use_cache=use_cache,
        obs=obs,
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
    construction.  See :func:`run_application` for the ``obs`` contract.
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
    if caching:
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
        return self.results[RunKey(app.upper(), policy, rate)]

    def _lookup(
        self, app: str, policy: str, rate: float
    ) -> Optional[SimulationResult]:
        return self.results.get(RunKey(app.upper(), policy, rate))

    def speedup(self, app: str, policy: str, baseline: str, rate: float) -> float:
        """IPC of ``policy`` over ``baseline`` (``nan`` on a failed cell)."""
        cell = self._lookup(app, policy, rate)
        base = self._lookup(app, baseline, rate)
        if cell is None or base is None:
            return float("nan")
        return cell.speedup_over(base)

    def eviction_ratio(self, app: str, policy: str, baseline: str, rate: float) -> float:
        """Evictions relative to ``baseline`` (``nan`` on a failed cell)."""
        cell = self._lookup(app, policy, rate)
        base = self._lookup(app, baseline, rate)
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
    """Worker count for :func:`run_matrix`.

    ``None`` defers to the ``REPRO_JOBS`` environment variable (default
    1, i.e. serial); ``0`` or a negative value means one worker per CPU.
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


#: Worker-process memo of the attached shared trace store, keyed by the
#: segment name so successive jobs of one matrix attach exactly once.
_ATTACHED_STORE: Optional[tuple[str, object]] = None


def _attach_shared_traces(handle) -> None:
    """Attach the parent's trace store in this worker (idempotent).

    Any failure to attach is silent — the worker simply builds traces
    itself, exactly as it would with no store published.
    """
    global _ATTACHED_STORE
    if _ATTACHED_STORE is not None and _ATTACHED_STORE[0] == handle.shm_name:
        return
    from repro.workloads.trace_io import TraceStore

    store = TraceStore.attach(handle)
    if store is None:
        return
    # Worker-local memo by design: each worker attaches its own view of
    # the shared-memory store; nothing must propagate back to the parent.
    _ATTACHED_STORE = (handle.shm_name, store)  # noqa: REP011
    _TRACES.attach_store(store)


def _run_job(job: tuple) -> SimulationResult:
    """Pool entry point: one scenario-cell simulation.

    Lives at module level so it pickles under any multiprocessing start
    method.  Only the frozen :class:`ScenarioSpec` and (optionally) a
    shared-memory trace store handle cross the process boundary inbound
    — the worker maps the parent's published traces, or builds its own
    when there is no store — and only the :class:`SimulationResult`
    crosses back.
    """
    cell, observe, handle = job
    if handle is not None:
        _attach_shared_traces(handle)
    # Workers observe registry-only (obs=True): an Observation carrying
    # an open JSONL handle must never cross the process boundary.  The
    # registry travels back serialised inside ``extras["metrics"]``.
    return run_spec(cell, obs=bool(observe))


def matrix_run_id(
    policies: Sequence[str],
    rates: Sequence[float],
    apps: Sequence[str],
    *,
    seed: int,
    scale: float,
    config: Optional[GPUConfig] = None,
    hpe_config: Optional[HPEConfig] = None,
) -> tuple[str, str]:
    """Deterministic (run id, full spec hash) for one matrix spec.

    A thin adapter over :meth:`~repro.scenarios.spec.MatrixSpec.run_id`
    — the id is a pure function of the *normalised* spec (``None`` and
    the explicit default ``GPUConfig()`` are the same matrix), so
    re-invoking the same matrix — by hand or via ``hpe-repro resume`` —
    lands on the same journal and picks up where the interrupted run
    stopped.
    """
    spec = MatrixSpec(
        policies=tuple(policies),
        rates=tuple(rates),
        apps=tuple(apps),
        seed=seed,
        scale=scale,
        config=config,
        hpe_config=hpe_config,
    )
    return spec.run_id(), spec.spec_hash()


class _MatrixSigTerm(BaseException):
    """Internal: SIGTERM converted to an exception for clean shutdown."""


class _SerialCellTimeout(Exception):
    """Internal: a serial (jobs=1) cell ran past its wall-clock budget."""


class _SerialDeadline:
    """SIGALRM-based wall-clock enforcement for serial cells.

    ``jobs=1`` runs in-process, so there is no worker to kill — but an
    interval timer can still interrupt a runaway cell.  Armed around
    each attempt; disarmed (and the previous handler restored) the
    moment the attempt finishes, so the alarm can never fire inside
    journaling or cache writes.  Enforcement is skipped — exactly as
    documented for ``REPRO_WORKER_TIMEOUT=0`` — when the timeout is 0,
    off the main thread, or the platform lacks ``setitimer``.
    """

    def __init__(self, timeout: float) -> None:
        self.timeout = timeout

    @property
    def enforcing(self) -> bool:
        return (
            self.timeout > 0
            and hasattr(signal, "setitimer")
            and threading.current_thread() is threading.main_thread()
        )

    def __enter__(self) -> "_SerialDeadline":
        if not self.enforcing:
            return self

        def handler(_signum: int, _frame: object) -> None:
            raise _SerialCellTimeout()

        self._previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, self.timeout)
        return self

    def __exit__(self, *_exc: object) -> None:
        if not self.enforcing:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def _chaos_serial_raise(action: str, key: str, attempt: int) -> None:
    """Serial-mode chaos: raise the stand-in exception for ``action``."""
    if action == "crash":
        raise resil_chaos.ChaosCrashError(
            f"injected crash for {key} (attempt {attempt})"
        )
    if action == "hang":
        raise resil_chaos.ChaosHangError(
            f"injected hang for {key} (attempt {attempt})"
        )
    raise resil_chaos.ChaosTransientError(
        f"injected transient failure for {key} (attempt {attempt})"
    )


def run_matrix(
    policies: Sequence[str],
    rates: Sequence[float] = PAPER_RATES,
    apps: Optional[Sequence[str]] = None,
    *,
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
    config: Optional[GPUConfig] = None,
    hpe_config: Optional[HPEConfig] = None,
    progress: bool = False,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    backoff: Optional[float] = None,
    chaos: Optional[Union[ChaosSpec, str]] = None,
    journal: Optional[bool] = None,
) -> ResultMatrix:
    """Run the cartesian product and collect a :class:`ResultMatrix`.

    A thin adapter over :func:`run_scenario`: the grid arguments are
    folded into a :class:`~repro.scenarios.spec.MatrixSpec`, so the
    legacy signature and an explicit spec produce identical run ids,
    journals, and cache digests by construction.

    With ``jobs > 1`` the (rate × app × policy) runs fan out over a
    supervised worker pool (:class:`~repro.resil.WorkerSupervisor`):
    each job gets a wall-clock ``timeout`` and up to ``retries`` extra
    attempts with exponential backoff, a crashed or hung worker costs
    one retry (never the matrix), and results are folded in the same
    deterministic order the serial path produces.  Workers build traces
    locally (traces are never pickled across the boundary).  ``jobs=1``
    runs serially in this process with the same retry discipline; the
    wall-clock timeout is enforced there too via a SIGALRM interval
    timer (``REPRO_WORKER_TIMEOUT=0`` disables enforcement on every
    path — the documented escape hatch for debugging a slow cell).

    When the persistent cache is on (and the run is not observed), every
    completion is recorded in an append-only run journal keyed by the
    cache digest; an interrupted run — ``KeyboardInterrupt``, SIGTERM,
    or an injected chaos interrupt — shuts down cleanly (pool
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
    """
    spec = MatrixSpec(
        policies=tuple(policies),
        rates=tuple(rates),
        apps=tuple(apps) if apps is not None else tuple(APPLICATION_ORDER),
        seed=seed,
        scale=scale,
        config=config,
        hpe_config=hpe_config,
    )
    return run_scenario(
        spec,
        progress=progress, jobs=jobs, timeout=timeout, retries=retries,
        backoff=backoff, chaos=chaos, journal=journal,
    )


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
) -> ResultMatrix:
    """Run every cell of ``spec`` — the scenario-first matrix engine.

    ``spec`` is the single identity authority for the whole run: the
    journal run id is ``spec.run_id()``, the ``run_start`` record
    carries ``spec.spec_hash()``, and each cell is cached under its
    :meth:`~repro.scenarios.spec.ScenarioSpec.digest`.  See
    :func:`run_matrix` for the execution/retry/journal contract.
    """
    cells = spec.cells()
    keys = [
        RunKey(cell.workload, cell.policy, cell.rate) for cell in cells
    ]
    cell_specs = dict(zip(keys, cells))
    matrix = ResultMatrix()
    if not keys:
        # No work: return the empty matrix before any pool is sized.
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
    # itself is only folded after a supervised run finishes, so it
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

    def journal_failed(key: RunKey, failure: JobFailure) -> None:
        counts["failed"] += 1
        if run_journal is not None:
            run_journal.append(
                "job_failed",
                app=key.app, policy=key.policy, rate=key.rate,
                digest=digests[key], error=failure.error_type,
                message=failure.message[:500], attempts=failure.attempts,
                elapsed=round(failure.elapsed, 6),
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
    # the pool.  This is what makes an interrupted run resumable — the
    # journal records completions by cache digest, and the cache serves
    # them bit-identically on the next invocation of the same spec.
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

    previous_handler = install_sigterm()
    try:
        # jobs > 1 always takes the supervised path — even for a single
        # remaining cell (e.g. a resume with one missing job) — because
        # the supervisor enforces the wall-clock timeout by killing the
        # worker; the serial path enforces it with SIGALRM, which can
        # interrupt a runaway cell but not reclaim one stuck in C code.
        if jobs == 1:
            _run_serial(
                matrix, remaining, cell_specs,
                chaos_spec=chaos_spec,
                timeout=resil_supervisor.resolve_timeout(timeout),
                retries=resil_supervisor.resolve_retries(retries),
                backoff=resil_supervisor.resolve_backoff(backoff),
                note=note, journal_done=journal_done,
                journal_failed=journal_failed,
            )
        else:
            _run_supervised(
                matrix, remaining, cell_specs,
                observing=observing,
                jobs=jobs, timeout=timeout, retries=retries,
                backoff=backoff, chaos_spec=chaos_spec,
                seed=spec.seed, scale=spec.scale,
                note=note, journal_done=journal_done,
                journal_failed=journal_failed,
            )
    except (KeyboardInterrupt, SupervisorInterrupted, _MatrixSigTerm) as exc:
        # Clean shutdown: the pool is already terminated (supervisor
        # shuts down in its finally), the journal gets its interruption
        # record and fsync, and the caller gets a typed, resumable error.
        finalize(interrupted=True)
        done = counts["done"] + counts["failed"]
        raise MatrixInterrupted(run_id, done, len(keys) - done) from exc
    finally:
        restore_sigterm(previous_handler)

    _fold_resil_metrics(matrix)
    finalize(interrupted=False)
    return matrix


def _run_serial(
    matrix: ResultMatrix,
    keys: Sequence[RunKey],
    cell_specs: dict[RunKey, ScenarioSpec],
    *,
    chaos_spec: Optional[ChaosSpec],
    timeout: float,
    retries: int,
    backoff: float,
    note,
    journal_done,
    journal_failed,
) -> None:
    """Serial execution with the same retry/chaos discipline as the pool.

    Chaos crash/hang actions degrade to in-process exceptions
    (:class:`~repro.resil.ChaosCrashError` / ``ChaosHangError``) so
    every failure mode stays testable without subprocesses.  The
    per-cell wall-clock ``timeout`` is enforced too — via a SIGALRM
    interval timer (:class:`_SerialDeadline`) rather than a process
    kill — so a single runaway cell can no longer wedge a serial run;
    ``REPRO_WORKER_TIMEOUT=0`` is the documented escape hatch.
    """
    previous_spec = resil_chaos.active_spec()
    if chaos_spec is not None:
        resil_chaos.activate(chaos_spec)
    completions = 0
    total_retries = 0
    try:
        for key in keys:
            note(key)
            job_key = f"{key.app}|{key.policy}|{key.rate!r}"
            started = time.monotonic()
            attempt = 1
            while True:
                try:
                    with _SerialDeadline(timeout):
                        if chaos_spec is not None:
                            action = chaos_spec.worker_action(
                                job_key, attempt
                            )
                            if action is not None:
                                _chaos_serial_raise(action, job_key, attempt)
                        result = run_spec(cell_specs[key])
                except Exception as exc:  # noqa: BLE001 — degraded, not hidden
                    if attempt <= retries:
                        total_retries += 1
                        delay = resil_supervisor.backoff_delay(
                            backoff, job_key, attempt
                        )
                        attempt += 1
                        if delay:
                            time.sleep(min(delay, 5.0))
                        continue
                    elapsed = time.monotonic() - started
                    if isinstance(exc, _SerialCellTimeout):
                        # Match the supervised path's failure identity.
                        error_type = "JobTimeout"
                        message = (
                            f"no result within {timeout:.1f}s "
                            "(serial in-process deadline)"
                        )
                    else:
                        error_type = type(exc).__name__
                        message = str(exc)
                    failure = JobFailure(
                        key=job_key,
                        error_type=error_type,
                        message=message,
                        attempts=attempt,
                        elapsed=elapsed,
                    )
                    matrix.record_failure(key, failure)
                    journal_failed(key, failure)
                    break
                else:
                    matrix.put(key, result)
                    journal_done(
                        key, attempts=attempt,
                        elapsed=time.monotonic() - started,
                    )
                    break
            completions += 1
            if chaos_spec is not None and chaos_spec.should_interrupt(
                completions
            ):
                raise SupervisorInterrupted(
                    f"chaos sigterm after {completions} completion(s)"
                )
    finally:
        if total_retries:
            matrix.metrics.set_gauge("resil.retries", total_retries)
        if chaos_spec is not None:
            resil_chaos.activate(previous_spec)


def _share_traces(
    keys: Sequence[RunKey], *, seed: int, scale: float, start_method: str
):
    """Build the distinct traces ``keys`` need in the parent and hand
    them to the workers; ``None`` when disabled or nothing was published.

    The parent pays one build (or disk load) per application — which it
    would pay anyway for any serial cell.  Workers created by ``fork``
    inherit the parent's warmed trace cache, so every trace they ask
    for is an in-memory hit and nothing is published for them: a
    segment would only start multiprocessing's resource tracker, whose
    lock deadlocks a worker forked while another thread holds it (two
    concurrent ``hpe-repro serve`` requests).  Workers of any other
    start method begin empty, so the traces are published over shared
    memory and every worker maps the same read-only buffer instead of
    regenerating its own copies; the caller closes and unlinks the
    returned store.
    """
    if not shared_traces_enabled():
        return None
    traces = {}
    for key in keys:
        cache_key = (key.app, seed, scale)
        if cache_key not in traces:
            traces[cache_key] = _TRACES.get(key.app, seed, scale)
    if start_method == "fork":
        return None
    from repro.workloads.trace_io import TraceStore

    return TraceStore.publish(traces)


def _run_supervised(
    matrix: ResultMatrix,
    keys: Sequence[RunKey],
    cell_specs: dict[RunKey, ScenarioSpec],
    *,
    observing: bool,
    jobs: int,
    timeout: Optional[float],
    retries: Optional[int],
    backoff: Optional[float],
    chaos_spec: Optional[ChaosSpec],
    seed: int,
    scale: float,
    note=None,
    journal_done=None,
    journal_failed=None,
) -> None:
    """Fan ``keys`` out over a supervised worker pool and fold results.

    Outcomes are journaled as they land (so an interrupt loses nothing)
    but folded into the matrix in deterministic key order, keeping the
    parallel path bit-identical to the serial one.
    """
    supervisor = WorkerSupervisor(
        _run_job, min(jobs, len(keys)),
        timeout=timeout, retries=retries, backoff=backoff, chaos=chaos_spec,
    )
    trace_store = _share_traces(
        keys, seed=seed, scale=scale, start_method=supervisor.start_method
    )
    trace_handle = trace_store.handle if trace_store is not None else None
    # The observe flag travels in the payload: a spawn-context worker
    # re-imports the world and loses any configure(enabled=True) made by
    # the CLI in this process.
    job_keys = {key: f"{key.app}|{key.policy}|{key.rate!r}" for key in keys}
    by_job_key = {job_keys[key]: key for key in keys}
    items = [
        (
            job_keys[key],
            (cell_specs[key], observing, trace_handle),
        )
        for key in keys
    ]

    def on_outcome(outcome) -> None:
        key = by_job_key[outcome.key]
        if outcome.ok:
            journal_done(key, attempts=outcome.attempts,
                         elapsed=outcome.elapsed)
        else:
            journal_failed(key, outcome.failure)

    try:
        outcomes = supervisor.run(items, on_outcome=on_outcome)
    finally:
        if trace_store is not None:
            trace_store.close()
            trace_store.unlink()
    # Gauges only when there is something to report: a clean, unobserved
    # matrix keeps its metrics registry empty (the obs contract).
    stat_gauges = {
        "resil.retries": supervisor.stats.retries,
        "resil.crashes": supervisor.stats.crashes,
        "resil.timeouts": supervisor.stats.timeouts,
        "resil.transient_errors": supervisor.stats.transient_errors,
    }
    for name, value in stat_gauges.items():
        if value:
            matrix.metrics.set_gauge(name, value)
    for key in keys:
        outcome = outcomes.get(job_keys[key])
        if outcome is None:
            continue
        note(key)
        if outcome.ok:
            matrix.put(key, outcome.result)
        else:
            matrix.record_failure(key, outcome.failure)


def _fold_resil_metrics(matrix: ResultMatrix) -> None:
    """Degradation counters every consumer can read off the matrix.

    Only emitted for a degraded matrix — a clean, unobserved run keeps
    its metrics registry empty (the obs contract).
    """
    if matrix.failures:
        matrix.metrics.set_gauge("resil.degraded_cells", len(matrix.failures))
        matrix.metrics.set_gauge("resil.completed_cells", len(matrix.results))


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
    per call site per process; see :func:`reset_mean_warnings`.
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
        return 0.0
    return math.exp(sum(logs) / len(logs))


def arithmetic_mean(values: Iterable[float]) -> float:
    """Plain mean (the paper reports arithmetic averages).

    ``nan`` entries — undefined ratios from degenerate baselines — are
    skipped with a :class:`RuntimeWarning` instead of poisoning the
    whole mean.  The warning fires once per call site per process; see
    :func:`reset_mean_warnings`.
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
        return 0.0
    return sum(kept) / len(kept)
