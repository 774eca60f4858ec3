"""Unit tests for the related-work baselines ARC, CAR, and WSClock."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.policies.arc import ARCPolicy
from repro.policies.base import PolicyError
from repro.policies.car import CARPolicy
from repro.policies.wsclock import WSClockPolicy


def drive(policy, trace, capacity):
    """Demand-paging loop mirroring the driver's call order."""
    resident: set[int] = set()
    faults = 0
    for page in trace:
        if page in resident:
            policy.on_walk_hit(page)
            continue
        faults += 1
        policy.on_fault_pending(page)
        if len(resident) >= capacity:
            victim = policy.select_victim()
            assert victim in resident
            resident.discard(victim)
        policy.on_page_in(page, faults)
        resident.add(page)
        count = policy.resident_count()
        assert count == len(resident)
    return faults


class TestARC:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            ARCPolicy(0)

    def test_empty_raises(self):
        with pytest.raises(PolicyError):
            ARCPolicy(4).select_victim()

    def test_hit_promotes_to_t2(self):
        policy = ARCPolicy(4)
        policy.on_page_in(1, 1)
        policy.on_page_in(2, 2)
        policy.on_walk_hit(1)   # 1 -> T2
        # T1 holds only page 2; with p=0, T1 is over target -> evict 2.
        policy.on_fault_pending(3)
        assert policy.select_victim() == 2

    def test_ghost_hit_adapts_p_upward(self):
        policy = ARCPolicy(2)
        policy.on_page_in(1, 1)
        policy.on_page_in(2, 2)
        policy.on_walk_hit(2)             # 2 -> T2, keeping |T1|+|B1| small
        policy.on_fault_pending(3)
        victim = policy.select_victim()   # 1 -> B1
        assert victim == 1
        policy.on_page_in(3, 3)
        p_before = policy.p
        policy.on_fault_pending(1)
        policy.select_victim()
        policy.on_page_in(1, 4)           # B1 ghost hit
        assert policy.p > p_before

    def test_frequency_protection(self):
        """A repeatedly-hit page survives a stream of one-timers."""
        policy = ARCPolicy(4)
        hot = 100
        policy.on_page_in(hot, 1)
        policy.on_walk_hit(hot)
        resident = {hot}
        fault = 1
        for page in range(32):
            fault += 1
            policy.on_fault_pending(page)
            if len(resident) >= 4:
                resident.discard(policy.select_victim())
            policy.on_page_in(page, fault)
            resident.add(page)
            policy.on_walk_hit(hot)
        assert hot in resident

    @settings(max_examples=20, deadline=None)
    @given(trace=st.lists(st.integers(0, 25), min_size=1, max_size=300),
           capacity=st.integers(2, 12))
    def test_invariants(self, trace, capacity):
        policy = ARCPolicy(capacity)
        drive(policy, trace, capacity)
        assert policy.resident_count() <= capacity
        assert policy.ghost_count <= 2 * capacity


class TestCAR:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            CARPolicy(0)

    def test_empty_raises(self):
        with pytest.raises(PolicyError):
            CARPolicy(4).select_victim()

    def test_referenced_t1_page_promoted_not_evicted(self):
        policy = CARPolicy(4)
        policy.on_page_in(1, 1)
        policy.on_page_in(2, 2)
        policy.on_walk_hit(1)
        victim = policy.select_victim()
        assert victim == 2  # page 1 was promoted to T2 instead

    def test_victims_are_resident(self):
        policy = CARPolicy(8)
        drive(policy, [x % 12 for x in range(200)], 8)

    @settings(max_examples=20, deadline=None)
    @given(trace=st.lists(st.integers(0, 25), min_size=1, max_size=300),
           capacity=st.integers(2, 12))
    def test_invariants(self, trace, capacity):
        policy = CARPolicy(capacity)
        drive(policy, trace, capacity)
        assert policy.resident_count() <= capacity


class TestWSClock:
    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            WSClockPolicy(tau_faults=0)

    def test_empty_raises(self):
        with pytest.raises(PolicyError):
            WSClockPolicy().select_victim()

    def test_idle_page_evicted_before_working_set(self):
        policy = WSClockPolicy(tau_faults=4)
        policy.on_page_in(1, 1)      # will go idle
        policy.on_page_in(2, 10)     # recent
        policy.on_page_in(3, 10)     # advance virtual time to 10
        policy.on_walk_hit(2)
        # Page 1 idle for 9 faults >= tau; page 2 referenced.
        assert policy.select_victim() == 1

    def test_reference_bit_grants_grace(self):
        policy = WSClockPolicy(tau_faults=2)
        policy.on_page_in(1, 1)
        policy.on_page_in(2, 8)
        policy.on_walk_hit(1)        # 1's bit set: first sweep spares it
        victim = policy.select_victim()
        assert victim in (1, 2)      # falls back after clearing bits
        assert policy.resident_count() == 1

    def test_fallback_when_everything_in_working_set(self):
        policy = WSClockPolicy(tau_faults=1000)
        for page in range(4):
            policy.on_page_in(page, page + 1)
        victim = policy.select_victim()
        assert victim == 0  # oldest last-use wins the fallback

    @settings(max_examples=20, deadline=None)
    @given(trace=st.lists(st.integers(0, 25), min_size=1, max_size=300),
           capacity=st.integers(2, 12))
    def test_invariants(self, trace, capacity):
        policy = WSClockPolicy(tau_faults=16)
        drive(policy, trace, capacity)
        assert policy.resident_count() <= capacity


class TestEngineIntegration:
    @pytest.mark.parametrize("name", ["arc", "car", "wsclock"])
    def test_runs_through_full_simulator(self, name):
        from repro.experiments.runner import run_spec
        from repro.scenarios.spec import ScenarioSpec
        result = run_spec(ScenarioSpec("STN", name, 0.75, scale=0.5))
        assert result.faults >= result.footprint_pages
        assert result.evictions == result.faults - result.capacity_pages
