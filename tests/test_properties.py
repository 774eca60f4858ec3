"""Property-based invariants across the whole policy zoo.

Hypothesis drives random traces and capacities through the full simulator
and checks the invariants any demand-paging system must satisfy,
regardless of replacement policy.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.hpe import HPEConfig, HPEPolicy
from repro.policies import (
    ClockProPolicy,
    FIFOPolicy,
    IdealPolicy,
    LFUPolicy,
    LRUPolicy,
    RandomPolicy,
    RRIPPolicy,
)
from repro.sim.config import GPUConfig
from repro.sim.engine import simulate
from repro.tlb.tlb import TLBConfig


def small_config():
    return GPUConfig(
        num_sms=2, warps_per_sm=4,
        l1_tlb=TLBConfig(entries=8, associativity=8, latency_cycles=1),
        l2_tlb=TLBConfig(entries=16, associativity=4, latency_cycles=10),
    )


def make_policies(capacity):
    return [
        LRUPolicy(),
        FIFOPolicy(),
        LFUPolicy(),
        RandomPolicy(seed=1),
        RRIPPolicy(),
        ClockProPolicy(capacity),
        IdealPolicy(),
        HPEPolicy(HPEConfig(page_set_size=4, interval_length=8,
                            transfer_interval=2, fifo_depth=16)),
    ]


traces = st.lists(st.integers(0, 40), min_size=1, max_size=250)
capacities = st.integers(2, 20)


@settings(max_examples=20, deadline=None)
@given(trace=traces, capacity=capacities)
def test_every_policy_satisfies_demand_paging_invariants(trace, capacity):
    """Faults ≥ compulsory; evictions = faults - capacity (when positive);
    residency never exceeds capacity; simulation terminates."""
    distinct = len(set(trace))
    for policy in make_policies(capacity):
        result = simulate(trace, policy, capacity, config=small_config())
        assert result.driver.compulsory_faults == distinct
        assert result.faults >= distinct
        assert result.evictions == max(0, result.faults - capacity)
        assert result.driver.faults == result.faults
        resident = policy.resident_count()
        if resident is not None:
            assert resident <= capacity


@settings(max_examples=20, deadline=None)
@given(trace=traces, capacity=capacities)
def test_ideal_is_a_lower_bound_for_all_policies(trace, capacity):
    ideal = simulate(trace, IdealPolicy(), capacity, config=small_config())
    for policy in make_policies(capacity):
        if isinstance(policy, IdealPolicy):
            continue
        result = simulate(trace, policy, capacity, config=small_config())
        assert ideal.faults <= result.faults


@settings(max_examples=15, deadline=None)
@given(trace=traces, capacity=capacities)
def test_simulations_are_deterministic(trace, capacity):
    for make in (lambda: LRUPolicy(),
                  lambda: RandomPolicy(seed=9),
                  lambda: HPEPolicy(HPEConfig(page_set_size=4,
                                              interval_length=8,
                                              transfer_interval=2,
                                              fifo_depth=16))):
        first = simulate(trace, make(), capacity, config=small_config())
        second = simulate(trace, make(), capacity, config=small_config())
        assert first.faults == second.faults
        assert first.evictions == second.evictions
        assert first.cycles == second.cycles


@settings(max_examples=15, deadline=None)
@given(trace=traces, capacity=capacities)
def test_larger_memory_never_increases_min_faults(trace, capacity):
    """MIN is monotone in capacity (no Belady anomaly for MIN)."""
    small = simulate(trace, IdealPolicy(), capacity, config=small_config())
    large = simulate(trace, IdealPolicy(), capacity + 4, config=small_config())
    assert large.faults <= small.faults


@settings(max_examples=10, deadline=None)
@given(trace=st.lists(st.integers(0, 100), min_size=1, max_size=300))
def test_full_memory_means_compulsory_only(trace):
    """With capacity >= footprint, every policy faults exactly once per page."""
    capacity = len(set(trace))
    for policy in make_policies(capacity):
        result = simulate(trace, policy, capacity, config=small_config())
        assert result.faults == capacity
        assert result.evictions == 0


@settings(max_examples=15, deadline=None)
@given(trace=traces, capacity=capacities)
def test_hpe_internal_invariants(trace, capacity):
    policy = HPEPolicy(HPEConfig(page_set_size=4, interval_length=8,
                                 transfer_interval=2, fifo_depth=16))
    result = simulate(trace, policy, capacity, config=small_config())
    # Chain resident bookkeeping matches the frame pool.
    chain_resident = sum(
        entry.resident_count for entry in policy.chain.iter_payloads_lru()
    )
    assert chain_resident == policy.resident_count()
    assert chain_resident <= capacity
    # Every chain entry owns at least one resident page (drained sets leave).
    for entry in policy.chain.iter_payloads_lru():
        assert entry.resident_count > 0
    # Counters never exceed the saturation cap.
    assert all(
        0 < e.counter <= 64 for e in policy.chain.iter_payloads_lru()
    )
