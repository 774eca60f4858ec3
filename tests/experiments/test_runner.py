"""Tests for the experiment runner."""

import math
import multiprocessing
import os
import warnings

import pytest

from repro.core.hpe import HPEPolicy
from repro.experiments.runner import (
    ENV_JOBS,
    POLICY_NAMES,
    TraceCache,
    arithmetic_mean,
    geometric_mean,
    make_policy,
    resolve_jobs,
    run_scenario,
    run_spec,
)
from repro.scenarios.spec import MatrixSpec, ScenarioSpec
from repro.sim import cache as sim_cache
from repro.policies import (
    ClockProPolicy,
    IdealPolicy,
    LRUPolicy,
    RRIPPolicy,
)
from repro.workloads.suite import get_application


class TestMakePolicy:
    def test_every_name_constructs(self):
        for name in POLICY_NAMES:
            policy = make_policy(name, capacity=64)
            assert policy is not None

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_policy("belady2", capacity=64)

    def test_rrip_config_follows_pattern_type(self):
        thrash = make_policy("rrip", 64, spec=get_application("HSD"))
        regular = make_policy("rrip", 64, spec=get_application("HOT"))
        assert thrash.config.insert_distant
        assert thrash.config.delay_threshold == 128
        assert not regular.config.insert_distant

    def test_clock_pro_gets_capacity(self):
        policy = make_policy("clock-pro", 500)
        assert isinstance(policy, ClockProPolicy)
        assert policy.capacity == 500

    def test_types(self):
        assert isinstance(make_policy("lru", 1), LRUPolicy)
        assert isinstance(make_policy("ideal", 1), IdealPolicy)
        assert isinstance(make_policy("hpe", 1), HPEPolicy)
        assert isinstance(make_policy("rrip", 1), RRIPPolicy)


class TestRunApplication:
    def test_basic_run(self):
        result = run_spec(ScenarioSpec("STN", "lru", 0.75, scale=0.5))
        assert result.policy_name == "lru"
        assert result.workload_name == "STN"
        assert result.faults > 0
        assert result.extras["rate"] == 0.75

    def test_capacity_honours_rate(self):
        result = run_spec(ScenarioSpec("HOT", "lru", 0.5, scale=0.5))
        assert result.capacity_pages == result.footprint_pages // 2


class TestRunMatrix:
    def test_matrix_contents(self):
        matrix = run_scenario(MatrixSpec(("lru", "ideal"), (0.75,),
                                         ("STN",), scale=0.5))
        assert matrix.get("STN", "lru", 0.75).faults > 0
        assert matrix.apps() == ["STN"]

    def test_speedup_and_eviction_helpers(self):
        matrix = run_scenario(MatrixSpec(("lru", "ideal"), (0.75,),
                                         ("STN",), scale=0.5))
        assert matrix.speedup("STN", "ideal", "lru", 0.75) >= 1.0
        assert matrix.eviction_ratio("STN", "lru", "ideal", 0.75) >= 1.0

    def test_missing_key_raises(self):
        matrix = run_scenario(MatrixSpec(("lru",), (0.75,), ("STN",),
                                         scale=0.5))
        with pytest.raises(KeyError):
            matrix.get("STN", "hpe", 0.75)

    def test_progress_goes_to_stderr(self, capsys):
        run_scenario(MatrixSpec(("lru",), (0.75,), ("STN",), scale=0.5),
                     progress=True, jobs=1)
        captured = capsys.readouterr()
        assert "running STN / lru" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("empty", [
        dict(policies=[]),
        dict(policies=["lru"], rates=[]),
        dict(policies=["lru"], apps=[]),
    ])
    def test_empty_job_list_returns_empty_matrix(self, empty):
        # Regression: an empty cartesian product with jobs > 1 used to
        # reach Pool(processes=0) and raise ValueError.
        grid = dict(rates=[0.75], apps=["STN"])
        grid.update(empty)
        matrix = run_scenario(MatrixSpec(**grid), jobs=4)
        assert matrix.results == {}
        assert matrix.apps() == []


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(ENV_JOBS, raising=False)
        assert resolve_jobs() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "3")
        assert resolve_jobs() == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "3")
        assert resolve_jobs(2) == 2

    def test_zero_means_all_cores(self, monkeypatch):
        import os
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_garbage_env_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv(ENV_JOBS, "many")
        assert resolve_jobs() == 1


class TestParallelMatrix:
    #: The ISSUE's acceptance slice: three apps spanning pattern types.
    APPS = ["BFS", "STN", "HOT"]

    def test_parallel_matches_serial(self):
        """jobs=4 must produce bit-identical results to jobs=1."""
        # Disable the result cache so the parallel path genuinely
        # simulates in the workers instead of replaying cached entries.
        sim_cache.configure(enabled=False)
        try:
            spec = MatrixSpec(("lru", "hpe"), (0.75,), tuple(self.APPS),
                              scale=0.25)
            serial = run_scenario(spec, jobs=1)
            parallel = run_scenario(spec, jobs=4)
        finally:
            sim_cache.configure(enabled=True)
        assert set(serial.results) == set(parallel.results)
        for key, expected in serial.results.items():
            actual = parallel.results[key]
            assert actual.key_metrics() == expected.key_metrics(), key

    def test_parallel_result_extras_survive_transport(self):
        sim_cache.configure(enabled=False)
        try:
            matrix = run_scenario(
                MatrixSpec(("hpe",), (0.75,), ("STN",), scale=0.25), jobs=2,
            )
        finally:
            sim_cache.configure(enabled=True)
        result = matrix.get("STN", "hpe", 0.75)
        policy = result.extras["policy"]
        assert policy.name == "hpe"
        assert result.extras["rate"] == 0.75

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs the fork start method",
    )
    def test_forked_workers_get_traces_without_shared_memory(
        self, tmp_path, monkeypatch
    ):
        """Workers build their own traces: a jobs=2 matrix creates no
        shared-memory segment, in the parent or in a worker, and matches
        jobs=1 bit for bit."""
        from multiprocessing import shared_memory

        log = tmp_path / "segments.log"
        real = shared_memory.SharedMemory

        class RecordingSharedMemory(real):
            def __init__(self, *args, **kwargs):
                # A file, not a list: forked workers write here too.
                with open(log, "a", encoding="utf-8") as handle:
                    handle.write(f"{os.getpid()} {args} {kwargs}\n")
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(shared_memory, "SharedMemory",
                            RecordingSharedMemory)
        policies = ["lru", "hpe", "clock-pro"]
        sim_cache.configure(enabled=False)
        try:
            spec = MatrixSpec(tuple(policies), (0.75,), tuple(self.APPS),
                              seed=5, scale=0.25)
            serial = run_scenario(spec, jobs=1)
            parallel = run_scenario(spec, jobs=2)
        finally:
            sim_cache.configure(enabled=True)
        assert not log.exists(), log.read_text(encoding="utf-8")
        assert set(serial.results) == set(parallel.results)
        assert len(serial.results) == len(policies) * len(self.APPS)
        for key, expected in serial.results.items():
            actual = parallel.results[key]
            assert actual.key_metrics() == expected.key_metrics(), key


class TestTraceCache:
    def test_lru_bound_evicts_oldest(self):
        cache = TraceCache(max_entries=2)
        cache.get("BFS", scale=0.1)
        cache.get("STN", scale=0.1)
        cache.get("BFS", scale=0.1)  # refresh BFS: STN is now oldest
        cache.get("HOT", scale=0.1)
        assert len(cache) == 2
        assert ("BFS", 7, 0.1) in cache._cache
        assert ("HOT", 7, 0.1) in cache._cache
        assert ("STN", 7, 0.1) not in cache._cache

    def test_hit_returns_same_object(self):
        cache = TraceCache()
        first = cache.get("BFS", scale=0.1)
        assert cache.get("BFS", scale=0.1) is first

    def test_clear(self):
        cache = TraceCache()
        cache.get("BFS", scale=0.1)
        cache.clear()
        assert len(cache) == 0

    def test_rejects_non_positive_bound(self):
        with pytest.raises(ValueError):
            TraceCache(max_entries=0)


class TestMeans:
    @pytest.fixture(autouse=True)
    def _fresh_warning_dedup(self):
        """Each test sees the once-per-call-site set empty."""
        from repro.experiments.runner import reset_mean_warnings

        reset_mean_warnings()
        yield
        reset_mean_warnings()

    def test_arithmetic_mean(self):
        assert arithmetic_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        assert math.isnan(arithmetic_mean([]))

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert math.isnan(geometric_mean([]))

    def test_geometric_mean_warns_on_non_positive(self):
        with pytest.warns(RuntimeWarning, match="non-positive"):
            assert geometric_mean([0.0, 2.0, 8.0]) == pytest.approx(4.0)

    def test_geometric_mean_strict_raises(self):
        with pytest.raises(ValueError, match="non-positive"):
            geometric_mean([-1.0, 2.0], strict=True)

    def test_geometric_mean_all_positive_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert geometric_mean([2.0, 8.0], strict=True) == pytest.approx(4.0)

    def test_geometric_mean_skips_nan_with_warning(self):
        with pytest.warns(RuntimeWarning, match="NaN"):
            assert geometric_mean([float("nan"), 2.0, 8.0]) == \
                pytest.approx(4.0)

    def test_geometric_mean_strict_raises_on_nan(self):
        with pytest.raises(ValueError, match="non-positive"):
            geometric_mean([float("nan")], strict=True)

    def test_arithmetic_mean_skips_nan_with_warning(self):
        with pytest.warns(RuntimeWarning, match="NaN"):
            assert arithmetic_mean([float("nan"), 2.0, 4.0]) == \
                pytest.approx(3.0)

    def test_arithmetic_mean_all_nan_is_nan(self):
        with pytest.warns(RuntimeWarning):
            assert math.isnan(arithmetic_mean([float("nan")]))

    def test_arithmetic_mean_clean_values_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert arithmetic_mean([1.0, 3.0]) == pytest.approx(2.0)

    def test_geometric_mean_warns_once_per_call_site(self):
        """A 50-cell sweep must not repeat the identical warning 50x."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(50):
                geometric_mean([0.0, 2.0, 8.0])
        assert len(caught) == 1
        assert issubclass(caught[0].category, RuntimeWarning)

    def test_arithmetic_mean_warns_once_per_call_site(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(50):
                arithmetic_mean([float("nan"), 2.0])
        assert len(caught) == 1

    def test_distinct_call_sites_each_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            geometric_mean([0.0, 2.0])
            geometric_mean([0.0, 2.0])
        assert len(caught) == 2

    def test_reset_restores_warning(self):
        from repro.experiments.runner import reset_mean_warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for _ in range(2):
                arithmetic_mean([float("nan")])
                reset_mean_warnings()
        assert len(caught) == 2

    def test_strict_mode_raises_every_time(self):
        """Dedup must never swallow the strict=True ValueError."""
        for _ in range(3):
            with pytest.raises(ValueError):
                geometric_mean([-1.0], strict=True)
