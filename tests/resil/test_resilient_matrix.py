"""End-to-end resilience of `run_scenario`: chaos, degradation, resume.

The acceptance criteria of the resilience work live here:

* an interrupted matrix resumes from its journal and produces results
  **bit-identical** (metric digests) to an uninterrupted run;
* under injected faults the runner completes with retries, reporting
  retry-exhausted cells as explicit failures — never an exception;
* torn cache entries are detected, treated as misses, and recomputed to
  identical results.

Every failure mode runs at ``jobs=1`` (the supervisor's in-process
executor) and ``jobs=2`` (worker processes), and the two must agree.
Everything runs at ``scale=0.25`` on two small apps to stay fast.
"""

from __future__ import annotations

import math
import time
import warnings

import pytest

from repro.experiments import runner as runner_module
from repro.experiments.runner import RunKey, run_scenario
from repro.resil import MatrixInterrupted, WorkerSupervisor
from repro.resil import chaos as resil_chaos
from repro.resil import journal as resil_journal
from repro.scenarios.spec import MatrixSpec
from repro.sim import cache as sim_cache

APPS = ["STN", "HOT"]
POLICIES = ["lru", "ideal"]
RATES = [0.5]
SCALE = 0.25

#: Both executors: in process (1) and worker processes (2).
JOB_COUNTS = pytest.mark.parametrize("jobs", [1, 2])

RESIL_GAUGES = (
    "resil.retries", "resil.crashes", "resil.timeouts",
    "resil.transient_errors",
)


@pytest.fixture(autouse=True)
def _chaos_clean():
    resil_chaos.deactivate()
    yield
    resil_chaos.deactivate()


@pytest.fixture
def fresh_cache(tmp_path):
    """Point the persistent cache at an empty per-test directory."""
    previous = sim_cache.cache_dir()
    sim_cache.configure(enabled=True, directory=tmp_path / "cache")
    yield tmp_path / "cache"
    sim_cache.configure(enabled=True, directory=previous)


def _digests(matrix):
    return {key: result.metrics_digest() for key, result in matrix.results.items()}


def _spec(**fields):
    """The test grid, with ``fields`` replaced."""
    grid = dict(policies=POLICIES, rates=RATES, apps=APPS, scale=SCALE)
    grid.update(fields)
    return MatrixSpec(**grid)


def _run(spec=None, **options):
    options.setdefault("backoff", 0.0)
    return run_scenario(spec or _spec(), **options)


class TestJournalledRun:
    def test_clean_run_writes_ended_journal(self, fresh_cache):
        matrix = _run()
        assert not matrix.degraded
        assert matrix.run_id.startswith("run-")
        summary = resil_journal.load(matrix.run_id)
        assert summary is not None
        assert summary.ended and not summary.interrupted
        assert summary.total_jobs == 4
        assert len(summary.completed) == 4
        assert summary.failed == {}

    def test_run_id_is_deterministic(self):
        first = _spec(seed=7)
        second = _spec(seed=7)
        other = _spec(seed=8).run_id()
        assert (first.run_id(), first.spec_hash()) == \
            (second.run_id(), second.spec_hash())
        assert other != first.run_id()

    def test_no_journal_when_cache_disabled(self, tmp_path):
        previous = sim_cache.cache_dir()
        sim_cache.configure(enabled=False, directory=tmp_path / "cache")
        try:
            matrix = _run(_spec(policies=["lru"], apps=["STN"]))
            assert not resil_journal.journal_path(matrix.run_id).is_file()
        finally:
            sim_cache.configure(enabled=True, directory=previous)

    def test_empty_matrix_short_circuits(self, fresh_cache):
        matrix = run_scenario(_spec(policies=["lru"], rates=[]))
        assert matrix.results == {} and not matrix.degraded


class TestResumeEquivalence:
    @JOB_COUNTS
    def test_interrupt_then_resume_is_bit_identical(self, fresh_cache, tmp_path, jobs):
        # Reference digests from an uninterrupted run in its own cache.
        sim_cache.configure(enabled=True, directory=tmp_path / "clean")
        clean = _digests(_run())

        # Interrupted run in a second, fresh cache: chaos delivers a
        # SIGTERM-equivalent after two completions.
        sim_cache.configure(enabled=True, directory=tmp_path / "resume")
        with pytest.raises(MatrixInterrupted) as excinfo:
            _run(jobs=jobs, chaos="sigterm=2,seed=3")
        interrupted = excinfo.value
        assert interrupted.completed == 2
        assert interrupted.remaining == 2

        summary = resil_journal.load(interrupted.run_id)
        assert summary is not None
        assert summary.interrupted and not summary.ended
        assert len(summary.completed) == 2

        # Re-running the same spec resumes from the journal's cache
        # digests and lands on the same run id and identical bits.
        resumed = _run()
        assert resumed.run_id == interrupted.run_id
        assert _digests(resumed) == clean

        summary = resil_journal.load(interrupted.run_id)
        assert summary.segments == 2
        assert summary.ended
        assert len(summary.completed) == 4

    @JOB_COUNTS
    def test_torn_cache_entries_recomputed_identically(self, fresh_cache, jobs):
        # torn=1.0 corrupts every persistent result entry as written
        # (seed 11 keeps these digests distinct from other tests' — a
        # digest is only torn once per process).
        first = _run(_spec(seed=11), jobs=jobs, chaos="torn=1.0,seed=5")
        assert not first.degraded
        before = sim_cache.result_cache().stats.result_corrupt
        second = _run(_spec(seed=11))
        assert sim_cache.result_cache().stats.result_corrupt > before
        assert _digests(second) == _digests(first)


class TestGracefulDegradation:
    @JOB_COUNTS
    def test_exhausted_retries_become_explicit_failures(self, fresh_cache, jobs):
        matrix = _run(jobs=jobs, chaos="flaky=1.0,seed=3", retries=1)
        assert matrix.degraded
        assert matrix.results == {}
        assert len(matrix.failures) == 4
        for failure in matrix.failures.values():
            assert failure.error_type == "ChaosTransientError"
            assert failure.attempts == 2
        assert len(matrix.failure_lines()) == 4
        # Ratios over failed cells are NaN, not exceptions.
        assert math.isnan(matrix.speedup("STN", "lru", "ideal", 0.5))
        # Journal recorded the failures.
        summary = resil_journal.load(matrix.run_id)
        assert len(summary.failed) == 4
        # Degradation is visible on the matrix metrics.
        assert matrix.metrics.gauge("resil.degraded_cells") == 4
        assert matrix.metrics.gauge("resil.completed_cells") == 0
        assert matrix.metrics.gauge("resil.retries") == 4

    @JOB_COUNTS
    def test_transient_faults_retried_to_completion(self, fresh_cache, tmp_path, jobs):
        # Reference digests, then a faulty run in a second fresh cache:
        # flaky=0.3 with a generous retry budget must converge on the
        # same bits as the clean run.
        clean = _digests(_run())
        sim_cache.configure(enabled=True, directory=tmp_path / "flaky")
        matrix = _run(jobs=jobs, chaos="flaky=0.3,seed=9", retries=6)
        assert not matrix.degraded
        assert _digests(matrix) == clean

    @JOB_COUNTS
    def test_figures_render_degraded_not_raise(self, fresh_cache, monkeypatch, jobs):
        from repro.experiments.figures import figure3

        monkeypatch.setenv("REPRO_JOBS", str(jobs))
        monkeypatch.setenv("REPRO_CHAOS", "flaky=1.0,seed=3")
        monkeypatch.setenv("REPRO_RETRIES", "0")
        monkeypatch.setenv("REPRO_BACKOFF", "0")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = figure3(apps=["STN"], scale=SCALE)
        degraded = [n for n in result.notes if n.startswith("DEGRADED")]
        assert degraded, result.notes
        assert any("3 cell(s) failed" in note for note in degraded)


class TestSupervisedPath:
    @JOB_COUNTS
    def test_parallel_crashes_reported_per_cell(self, fresh_cache, jobs):
        matrix = _run(jobs=jobs, chaos="crash=1.0,seed=3", retries=0, timeout=60.0)
        assert matrix.degraded
        assert len(matrix.failures) == 4
        for failure in matrix.failures.values():
            assert failure.error_type == "WorkerCrash"
        summary = resil_journal.load(matrix.run_id)
        assert len(summary.failed) == 4
        assert matrix.metrics.gauge("resil.crashes") == 4

    def test_single_remaining_cell_stays_supervised(self, fresh_cache, monkeypatch):
        # With jobs > 1 even a lone cell must run in a worker process:
        # only a process can be killed when a cell hangs in C code.
        def _no_in_process(*_args, **_kwargs):
            raise AssertionError("in-process executor must not run when jobs > 1")

        monkeypatch.setattr(WorkerSupervisor, "_run_in_process", _no_in_process)
        matrix = _run(_spec(policies=["lru"], apps=["STN"]), jobs=2,
                      timeout=120.0)
        assert not matrix.degraded
        assert len(matrix.results) == 1

    def test_parallel_clean_run_matches_serial(self, fresh_cache, tmp_path):
        serial = _digests(_run())
        sim_cache.configure(enabled=True, directory=tmp_path / "par")
        parallel = _digests(_run(jobs=2, timeout=120.0))
        assert parallel == serial
        assert RunKey("STN", "lru", 0.5) in parallel


class TestExecutorParity:
    """The in-process and pooled executors answer every failure alike."""

    @pytest.mark.parametrize("chaos, timeout", [
        ("crash=1.0,seed=3", 60.0),
        ("hang=1.0,seed=3", 0.5),
        ("flaky=1.0,seed=3", 60.0),
        # seed 1: one cell crashes then succeeds, one exhausts on
        # transient errors, one on crashes, one runs clean.
        ("flaky=0.3,crash=0.2,seed=1", 60.0),
    ])
    def test_same_failures_and_gauges_at_every_job_count(
        self, fresh_cache, tmp_path, chaos, timeout
    ):
        seen = {}
        for jobs in (1, 2):
            # A cached cell never reaches an executor: fresh cache each.
            sim_cache.configure(enabled=True, directory=tmp_path / f"jobs{jobs}")
            matrix = _run(jobs=jobs, chaos=chaos, timeout=timeout, retries=1)
            seen[jobs] = (
                {
                    key: (failure.error_type, failure.attempts)
                    for key, failure in matrix.failures.items()
                },
                {name: matrix.metrics.gauge(name) for name in RESIL_GAUGES},
            )
        assert seen[1][0], "every spec here degrades at least one cell"
        assert seen[1] == seen[2]

    @JOB_COUNTS
    def test_progress_lines_land_before_interrupt(self, fresh_cache, capsys, jobs):
        with pytest.raises(MatrixInterrupted):
            _run(jobs=jobs, chaos="sigterm=2", progress=True)
        lines = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("running ")
        ]
        assert len(lines) == 2, lines


def _tiny_spec() -> MatrixSpec:
    return MatrixSpec(
        policies=("lru",), rates=(0.5,), apps=("HOT",), scale=0.25,
    )


class TestCellTimeout:
    """Real wall-clock timeouts: ``run_spec`` is patched to hang.

    Forked workers inherit the patch, so every case runs at both job
    counts; the fakes take ``obs=`` because the supervisor's job entry
    point passes it.
    """

    @pytest.fixture(autouse=True)
    def _cold_result_cache(self):
        # These tests patch run_spec and assert it actually runs; a warm
        # result cache would serve the cell and bypass it.
        previous = sim_cache.cache_enabled()
        sim_cache.configure(enabled=False)
        try:
            yield
        finally:
            sim_cache.configure(enabled=previous)

    @JOB_COUNTS
    def test_hung_cell_degrades_as_job_timeout(self, monkeypatch, jobs):
        def hang(spec, obs=None):
            time.sleep(30.0)

        monkeypatch.setattr(runner_module, "run_spec", hang)
        matrix = runner_module.run_scenario(
            _tiny_spec(), jobs=jobs, timeout=0.3, retries=0, journal=False,
        )
        assert matrix.degraded
        failure = next(iter(matrix.failures.values()))
        assert (failure.error_type, failure.attempts) == ("JobTimeout", 1)
        assert matrix.metrics.gauge("resil.timeouts") == 1

    @JOB_COUNTS
    def test_retry_budget_applies_before_degrading(self, monkeypatch, tmp_path, jobs):
        # A file, not a list: the count must survive a forked worker.
        calls = tmp_path / "calls"
        real_run_spec = runner_module.run_spec

        def hang_once_then_fast(spec, obs=None):
            with calls.open("a") as stream:
                stream.write("x")
            if calls.read_text() == "x":
                time.sleep(30.0)
            return real_run_spec(spec, obs=obs)

        monkeypatch.setattr(runner_module, "run_spec", hang_once_then_fast)
        matrix = runner_module.run_scenario(
            _tiny_spec(), jobs=jobs, timeout=0.3, retries=1,
            backoff=0.01, journal=False,
        )
        assert not matrix.degraded
        assert calls.read_text() == "xx"

    @JOB_COUNTS
    def test_zero_timeout_escape_hatch(self, monkeypatch, jobs):
        real_run_spec = runner_module.run_spec

        def slowish(spec, obs=None):
            time.sleep(0.3)
            return real_run_spec(spec, obs=obs)

        monkeypatch.setattr(runner_module, "run_spec", slowish)
        # An explicit timeout=0 beats the environment's 0.1 s budget and
        # disables enforcement, so the 0.3 s cell completes.
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "0.1")
        matrix = runner_module.run_scenario(
            _tiny_spec(), jobs=jobs, timeout=0, retries=0, journal=False,
        )
        assert not matrix.degraded

    @JOB_COUNTS
    def test_env_escape_hatch_reaches_both_executors(self, monkeypatch, jobs):
        real_run_spec = runner_module.run_spec

        def slowish(spec, obs=None):
            time.sleep(0.3)
            return real_run_spec(spec, obs=obs)

        monkeypatch.setattr(runner_module, "run_spec", slowish)
        # REPRO_WORKER_TIMEOUT=0 disables enforcement although the
        # legacy alias asks for 0.1 s (the preferred name wins).
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT", "0")
        monkeypatch.setenv("REPRO_TIMEOUT", "0.1")
        matrix = runner_module.run_scenario(
            _tiny_spec(), jobs=jobs, retries=0, journal=False,
        )
        assert not matrix.degraded
