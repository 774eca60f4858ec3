"""Integration tests: observability threaded through real simulations."""

from __future__ import annotations

import pytest

from repro import obs as obs_module
from repro.experiments.runner import make_policy, run_scenario, run_spec
from repro.obs import (
    JSONLEventTrace,
    Observation,
    TimeSeriesRecorder,
    read_events,
    validate_file,
)
from repro.scenarios.spec import MatrixSpec, ScenarioSpec
from repro.sim.engine import UVMSimulator
from repro.uvm.driver import UVMDriver
from repro.workloads.suite import get_application

#: Simulate afresh: a cached result carries no observation payloads.
RUN = dict(use_cache=False)


def stn(policy: str) -> ScenarioSpec:
    """STN under ``policy`` at 75% oversubscription, scale 0.25."""
    return ScenarioSpec("STN", policy, 0.75, scale=0.25)


class TestTimeSeriesRecorder:
    def test_record_and_access(self):
        recorder = TimeSeriesRecorder()
        recorder.record({"interval": 1, "old": 0})
        recorder.record({"interval": 2, "old": 3})
        assert len(recorder) == 2
        assert recorder.latest()["interval"] == 2
        assert recorder.series("old") == [0, 3]
        assert recorder.as_list()[0]["interval"] == 1

    def test_empty(self):
        recorder = TimeSeriesRecorder()
        assert recorder.latest() is None
        assert recorder.as_list() == []
        assert list(recorder) == []


class TestObservedRun:
    def test_disabled_run_carries_no_observation_payloads(self):
        result = run_spec(stn("hpe"), obs=False, **RUN)
        assert "timeseries" not in result.extras
        assert "metrics" not in result.extras

    def test_observation_without_a_sink_keeps_the_inline_fault_path(
        self, monkeypatch
    ):
        """Metrics and time series need no per-fault driver work: a
        sink-free observed run services faults inline, and observes what
        the reference loop (which always goes through the driver) does."""
        spec = stn("hpe")
        trace = get_application(spec.workload).build(
            seed=spec.seed, scale=spec.scale
        )
        capacity = trace.capacity_for(spec.rate)

        def observed(tier):
            simulator = UVMSimulator(
                make_policy("hpe", capacity), capacity, obs=Observation()
            )
            return simulator.run(trace.pages, workload_name="STN", fast=tier)

        reference = observed(0)

        def refuse(_driver, _page):
            raise AssertionError("fault serviced through the driver")

        monkeypatch.setattr(UVMDriver, "service_fault", refuse)
        inline = observed(1)
        assert inline.key_metrics() == reference.key_metrics()
        assert inline.extras["metrics"] == reference.extras["metrics"]
        assert inline.extras["timeseries"] == reference.extras["timeseries"]

    def test_key_metrics_bit_identical_with_obs_on(self):
        plain = run_spec(stn("hpe"), obs=False, **RUN)
        observed = run_spec(stn("hpe"), obs=True, **RUN)
        assert observed.key_metrics() == plain.key_metrics()

    def test_timeseries_one_snapshot_per_interval(self):
        result = run_spec(stn("hpe"), obs=True, **RUN)
        policy = result.extras["policy"]
        snapshots = result.extras["timeseries"]
        assert len(snapshots) == policy.chain.intervals
        assert [s["interval"] for s in snapshots] == \
            list(range(1, len(snapshots) + 1))

    def test_partition_sizes_sum_to_chain_length(self):
        result = run_spec(stn("hpe"), obs=True, **RUN)
        for snapshot in result.extras["timeseries"]:
            assert snapshot["old"] + snapshot["middle"] + snapshot["new"] \
                == snapshot["chain_length"]

    def test_final_snapshot_matches_live_chain(self):
        result = run_spec(stn("hpe"), obs=True, **RUN)
        policy = result.extras["policy"]
        last = result.extras["timeseries"][-1]
        # The last snapshot precedes any post-interval faults, so compare
        # against the snapshot's own consistency plus the live partition
        # invariant rather than exact equality.
        assert last["chain_length"] <= len(policy.chain) + last["new"] + \
            last["middle"] + last["old"]
        assert last["resident_pages"] <= result.capacity_pages

    def test_registry_matches_driver_stats(self):
        result = run_spec(stn("hpe"), obs=True, **RUN)
        counters = result.extras["metrics"]["counters"]
        assert counters["driver.faults"] == result.faults
        assert counters["driver.evictions"] == result.evictions
        assert counters["hpe.faults"] == result.faults
        assert counters["walker.faults"] == result.faults

    def test_non_hpe_policies_observe_too(self):
        result = run_spec(stn("lru"), obs=True, **RUN)
        counters = result.extras["metrics"]["counters"]
        assert counters["driver.faults"] == result.faults
        assert result.extras["timeseries"] == []  # no interval machinery

    def test_event_trace_schema_valid_end_to_end(self, tmp_path):
        path = tmp_path / "stn.events.jsonl"
        with Observation(trace=JSONLEventTrace(path, validate=True)) as obs:
            result = run_spec(stn("hpe"), obs=obs, **RUN)
        count = validate_file(path)
        assert count > 0
        events = list(read_events(path))
        assert events[0]["type"] == "run_start"
        assert events[0]["workload"] == "STN"
        assert events[-1]["type"] == "run_end"
        assert events[-1]["faults"] == result.faults
        by_type = {e["type"] for e in events}
        assert {"fault", "eviction", "interval", "classification",
                "hir_transfer"} <= by_type
        faults = [e for e in events if e["type"] == "fault"]
        assert len(faults) == result.faults
        evictions = [e for e in events if e["type"] == "eviction"]
        assert len(evictions) == result.evictions

    def test_trace_seq_monotonic(self, tmp_path):
        path = tmp_path / "seq.events.jsonl"
        with Observation(trace=JSONLEventTrace(path, validate=True)) as obs:
            run_spec(stn("hpe"), obs=obs, **RUN)
        seqs = [e["seq"] for e in read_events(path)]
        assert seqs == list(range(len(seqs)))

    def test_observed_run_bypasses_cache(self, tmp_path):
        from repro.sim import cache as sim_cache

        previous = sim_cache.cache_dir()
        sim_cache.configure(enabled=True, directory=tmp_path)
        try:
            run_spec(stn("lru"), obs=True)
            assert sim_cache.result_cache().entry_count() == 0
        finally:
            sim_cache.configure(enabled=True, directory=previous)

    def test_env_enables_observation(self, monkeypatch):
        monkeypatch.setattr(obs_module, "_enabled_override", None)
        monkeypatch.setenv(obs_module.ENV_OBS, "1")
        assert obs_module.enabled()
        result = run_spec(stn("lru"), **RUN)
        assert "metrics" in result.extras
        monkeypatch.setenv(obs_module.ENV_OBS, "0")
        assert not obs_module.enabled()


class TestObservedMatrix:
    def test_parallel_matrix_merges_worker_registries(self, monkeypatch):
        monkeypatch.setattr(obs_module, "_enabled_override", None)
        monkeypatch.setenv(obs_module.ENV_OBS, "1")
        matrix = run_scenario(
            MatrixSpec(("lru", "hpe"), (0.75,), ("STN",), scale=0.25), jobs=2,
        )
        total_faults = sum(r.faults for r in matrix.results.values())
        assert matrix.metrics.counter("driver.faults") == total_faults

    def test_serial_matrix_merges_too(self, monkeypatch):
        monkeypatch.setattr(obs_module, "_enabled_override", None)
        monkeypatch.setenv(obs_module.ENV_OBS, "1")
        matrix = run_scenario(
            MatrixSpec(("lru",), (0.75,), ("STN",), scale=0.25), jobs=1,
        )
        [result] = matrix.results.values()
        assert matrix.metrics.counter("driver.faults") == result.faults

    def test_unobserved_matrix_has_empty_metrics(self, monkeypatch):
        monkeypatch.setattr(obs_module, "_enabled_override", False)
        matrix = run_scenario(
            MatrixSpec(("lru",), (0.75,), ("STN",), scale=0.25), jobs=1,
        )
        assert len(matrix.metrics) == 0


class TestConfigure:
    def test_configure_override_wins_over_env(self, monkeypatch):
        monkeypatch.setattr(obs_module, "_enabled_override", None)
        monkeypatch.setenv(obs_module.ENV_OBS, "0")
        obs_module.configure(enabled=True)
        assert obs_module.enabled()

    @pytest.mark.parametrize("raw,expected", [
        ("1", True), ("on", True), ("TRUE", True), ("yes", True),
        ("0", False), ("", False), ("off", False), ("garbage", False),
    ])
    def test_env_values(self, monkeypatch, raw, expected):
        monkeypatch.setattr(obs_module, "_enabled_override", None)
        monkeypatch.setenv(obs_module.ENV_OBS, raw)
        assert obs_module.enabled() is expected
