"""Tests for the trace-driven timing engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.policies.fifo import FIFOPolicy
from repro.policies.ideal import IdealPolicy
from repro.policies.lru import LRUPolicy
from repro.sim.config import GPUConfig, resolve_fastpath_level
from repro.sim.engine import UVMSimulator, simulate
from repro.tlb.tlb import TLBConfig


def small_config():
    return GPUConfig(
        num_sms=2, warps_per_sm=4,
        l1_tlb=TLBConfig(entries=8, associativity=8, latency_cycles=1),
        l2_tlb=TLBConfig(entries=16, associativity=4, latency_cycles=10),
    )


class TestFunctionalBehaviour:
    def test_compulsory_faults_only_when_memory_fits(self):
        trace = list(range(10)) * 3
        result = simulate(trace, LRUPolicy(), capacity_pages=10,
                          config=small_config())
        assert result.faults == 10
        assert result.evictions == 0

    def test_thrash_faults_every_access_under_lru(self):
        trace = list(range(8)) * 3
        result = simulate(trace, LRUPolicy(), capacity_pages=4,
                          config=small_config())
        assert result.faults == 24  # cyclic + LRU = total miss

    def test_evictions_equal_faults_minus_capacity(self):
        trace = list(range(20)) * 2
        result = simulate(trace, LRUPolicy(), capacity_pages=6,
                          config=small_config())
        assert result.evictions == result.faults - 6

    def test_footprint_and_trace_length(self):
        trace = [1, 2, 3, 1]
        result = simulate(trace, LRUPolicy(), capacity_pages=4,
                          config=small_config())
        assert result.footprint_pages == 3
        assert result.trace_length == 4

    def test_ideal_is_primed_automatically(self):
        trace = [1, 2, 3, 1, 2, 4] * 2
        result = simulate(trace, IdealPolicy(), capacity_pages=3,
                          config=small_config())
        assert result.faults >= 4

    def test_determinism(self):
        trace = list(range(32)) * 4
        results = [
            simulate(trace, LRUPolicy(), capacity_pages=16,
                     config=small_config())
            for _ in range(2)
        ]
        assert results[0].cycles == results[1].cycles
        assert results[0].faults == results[1].faults


class TestTimingModel:
    def test_cycles_positive(self):
        result = simulate([1, 2, 3], LRUPolicy(), capacity_pages=4,
                          config=small_config())
        assert result.cycles > 0

    def test_faults_dominate_cycles(self):
        config = small_config()
        fit = simulate(list(range(8)) * 4, LRUPolicy(), 8, config=config)
        thrash = simulate(list(range(8)) * 4, LRUPolicy(), 4,
                          config=small_config())
        assert thrash.cycles > fit.cycles
        assert thrash.ipc < fit.ipc

    def test_instructions_scale_with_trace(self):
        config = small_config()
        result = simulate([1, 2, 3, 4], LRUPolicy(), 8, config=config)
        assert result.instructions == 4 * config.instructions_per_access

    def test_fewer_faults_means_higher_ipc(self):
        trace = list(range(16)) * 4
        lru = simulate(trace, LRUPolicy(), 8, config=small_config())
        ideal = simulate(trace, IdealPolicy(), 8, config=small_config())
        assert ideal.faults < lru.faults
        assert ideal.ipc > lru.ipc

    def test_walk_latency_config_respected(self):
        trace = list(range(64)) * 2
        fast = simulate(trace, LRUPolicy(), 64,
                        config=small_config().with_walk_latency(8))
        slow = simulate(trace, LRUPolicy(), 64,
                        config=small_config().with_walk_latency(200))
        assert slow.cycles >= fast.cycles


class TestResultHelpers:
    def test_speedup_over(self):
        trace = list(range(8)) * 4
        a = simulate(trace, IdealPolicy(), 4, config=small_config())
        b = simulate(trace, LRUPolicy(), 4, config=small_config())
        assert a.speedup_over(b) == pytest.approx(a.ipc / b.ipc)

    def test_evictions_normalized(self):
        trace = list(range(8)) * 4
        a = simulate(trace, IdealPolicy(), 4, config=small_config())
        b = simulate(trace, LRUPolicy(), 4, config=small_config())
        assert b.evictions_normalized_to(a) >= 1.0

    def test_oversubscription_rate(self):
        trace = list(range(10))
        result = simulate(trace, LRUPolicy(), 5, config=small_config())
        assert result.oversubscription_rate == pytest.approx(0.5)


class TestInvariants:
    @settings(max_examples=25, deadline=None)
    @given(trace=st.lists(st.integers(0, 30), min_size=1, max_size=300),
           capacity=st.integers(1, 16))
    def test_fault_accounting_invariants(self, trace, capacity):
        result = simulate(trace, LRUPolicy(), capacity, config=small_config())
        distinct = len(set(trace))
        assert result.driver.compulsory_faults == distinct
        assert result.faults >= distinct
        assert result.evictions == max(0, result.faults - capacity)

    @settings(max_examples=20, deadline=None)
    @given(trace=st.lists(st.integers(0, 20), min_size=1, max_size=200),
           capacity=st.integers(2, 10))
    def test_ideal_never_faults_more_than_fifo(self, trace, capacity):
        ideal = simulate(trace, IdealPolicy(), capacity, config=small_config())
        fifo = simulate(trace, FIFOPolicy(), capacity, config=small_config())
        assert ideal.faults <= fifo.faults


def _run_both_paths(trace, make_policy_fn, capacity, prefetch_degree=0):
    fast = UVMSimulator(make_policy_fn(), capacity, small_config(),
                        prefetch_degree=prefetch_degree)
    reference = UVMSimulator(make_policy_fn(), capacity, small_config(),
                             prefetch_degree=prefetch_degree)
    return (
        fast.run(trace, fast=True),
        reference.run(trace, fast=False),
    )


class TestFastPathEquivalence:
    """The flattened replay loop must be bit-identical to the reference."""

    def test_lru_identical(self):
        trace = [x % 24 for x in range(600)]
        fast, reference = _run_both_paths(trace, LRUPolicy, 12)
        assert fast.key_metrics() == reference.key_metrics()

    def test_ideal_identical(self):
        # Exercises the requires_future / on_trace_position branch.
        trace = [x % 24 for x in range(600)]
        fast, reference = _run_both_paths(trace, IdealPolicy, 12)
        assert fast.key_metrics() == reference.key_metrics()

    def test_hpe_identical(self):
        from repro.core.hpe import HPEConfig, HPEPolicy
        trace = ([x % 40 for x in range(400)]
                 + [x % 17 for x in range(300)])
        fast, reference = _run_both_paths(
            trace, lambda: HPEPolicy(HPEConfig(page_set_size=4)), 20
        )
        assert fast.key_metrics() == reference.key_metrics()

    def test_prefetch_identical(self):
        trace = list(range(128)) + [x % 32 for x in range(200)]
        fast, reference = _run_both_paths(trace, LRUPolicy, 48,
                                          prefetch_degree=3)
        assert fast.key_metrics() == reference.key_metrics()

    def test_env_var_selects_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_FASTPATH", "0")
        trace = [x % 24 for x in range(300)]
        sim = UVMSimulator(LRUPolicy(), 12, small_config())
        result = sim.run(trace)  # fast=None → env decides
        reference = UVMSimulator(LRUPolicy(), 12, small_config()).run(
            trace, fast=False
        )
        assert result.key_metrics() == reference.key_metrics()

    @settings(max_examples=20, deadline=None)
    @given(trace=st.lists(st.integers(0, 30), min_size=1, max_size=300),
           capacity=st.integers(1, 16))
    def test_property_identical(self, trace, capacity):
        fast, reference = _run_both_paths(trace, LRUPolicy, capacity)
        assert fast.key_metrics() == reference.key_metrics()


class TestFastpathResolution:
    """Env and explicit tier requests share one clamp into [0, 2]."""

    def test_explicit_level_clamps_into_range(self):
        assert resolve_fastpath_level(0) == 0
        assert resolve_fastpath_level(1) == 1
        # 2 numbered the retired batch kernel: an alias of tier 1.
        assert resolve_fastpath_level(2) == 1
        assert resolve_fastpath_level(3) == 1
        assert resolve_fastpath_level(7) == 1
        assert resolve_fastpath_level(-2) == 0

    def test_bools_select_default_or_reference(self):
        assert resolve_fastpath_level(True) == 1
        assert resolve_fastpath_level(False) == 0

    @pytest.mark.parametrize("raw,level", [
        ("", 1), ("0", 0), ("1", 1), ("2", 1), ("3", 1), ("7", 1),
        ("-2", 0), ("junk", 1),
    ])
    def test_env_var_clamps_like_explicit_levels(self, monkeypatch, raw,
                                                 level):
        monkeypatch.setenv("REPRO_SIM_FASTPATH", raw)
        assert resolve_fastpath_level(None) == level

    def test_run_records_the_requested_tier_as_run(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_FASTPATH", "3")
        trace = [x % 24 for x in range(300)]
        result = UVMSimulator(LRUPolicy(), 12, small_config()).run(trace)
        assert result.extras["fastpath"] == {"requested": 1, "executed": 1}
        result = UVMSimulator(LRUPolicy(), 12, small_config()).run(
            trace, fast=0
        )
        assert result.extras["fastpath"] == {"requested": 0, "executed": 0}


class TestPrefetchIntegration:
    def test_streaming_with_prefetch_has_fewer_faults(self):
        trace = list(range(256))
        plain = simulate(trace, LRUPolicy(), 512, config=small_config())
        fetched = simulate(trace, LRUPolicy(), 512, config=small_config(),
                           prefetch_degree=3)
        assert fetched.faults * 3 < plain.faults
        assert fetched.driver.prefetches > 0

    def test_prefetch_never_overflows_memory(self):
        trace = [x % 40 for x in range(400)]
        result = simulate(trace, LRUPolicy(), 16, config=small_config(),
                          prefetch_degree=7)
        assert result.driver.faults > 0  # ran to completion within capacity
