"""Metamorphic properties of the simulator, checked on every tier.

Unlike the differential matrix (which can only prove the tiers agree
with each other) and the goldens (which pin absolute numbers), these
assert *relations between runs* that must hold for any correct
implementation:

* translating every page by a set-geometry-preserving offset changes
  nothing observable;
* replaying ``concatenate(A, B)`` equals replaying ``A`` then ``B`` on
  the same simulator, for all functional state and counters;
* at 100% memory-to-footprint ratio nothing is ever evicted.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.check.diffrun import run_level
from repro.check.difftraces import GENERATORS, build
from repro.experiments.runner import make_policy
from repro.sim.engine import UVMSimulator

#: Tier 0 (the reference loop) and tier 1 (the exact kernel).  ``2``
#: numbered the retired batch kernel; a spec, ``REPRO_SIM_FASTPATH`` or
#: ``--fastpath`` value of 2 now resolves to tier 1, and its parameter
#: stays so these properties cover that alias too.
LEVELS = (0, 1, 2)

#: LCM-friendly offset unit: multiples preserve the L2 TLB set index
#: (32 sets), the (trivial) single-set L1 index, and the HPE page-set
#: grouping (16 pages/set), so a translated trace maps onto isomorphic
#: hardware state.
OFFSET_UNIT = 2048


@pytest.mark.parametrize("policy", ("lru", "hpe", "clock-pro", "rrip"))
@pytest.mark.parametrize("level", LEVELS)
def test_page_offset_translation_invariance(policy: str,
                                            level: int) -> None:
    trace = build("strided", 29, 2048)
    capacity = max(8, int(trace.footprint_pages * 0.5))
    base = run_level(trace.pages, policy, capacity, level)
    for multiplier in (1, 7):
        offset = multiplier * OFFSET_UNIT
        shifted_pages = [page + offset for page in trace.pages]
        shifted = run_level(shifted_pages, policy, capacity, level)
        assert shifted.metrics == base.metrics, (
            f"offset {offset} changed key_metrics at tier {level}"
        )
        assert shifted.evictions == [page + offset
                                     for page in base.evictions]


def _functional_state(simulator: UVMSimulator) -> tuple:
    """Everything that must match between concat and sequential runs.

    Timing state (warp readiness, fault-queue clock) is reset per
    ``run()`` call, so cycles/IPC legitimately differ; the functional
    machine — translation structures, driver counters, TLB counters —
    must not.
    """
    from repro.check.diffrun import _structural_state

    tlb_stats = [
        dataclasses.astuple(tlb.stats)
        for tlb in [*simulator.hierarchy.l1_tlbs, simulator.hierarchy.l2_tlb]
    ]
    return (
        _structural_state(simulator),
        dataclasses.astuple(simulator.driver.stats),
        tlb_stats,
        simulator.walker.hits,
    )


@pytest.mark.parametrize("policy", ("lru", "hpe", "fifo"))
@pytest.mark.parametrize("level", LEVELS)
def test_concat_equals_sequential_runs(policy: str, level: int) -> None:
    # Episode index picks the issuing SM (index % num_sms) and warp, so
    # part A must be a multiple of the full interleave period (720
    # warps = LCM with 15 SMs) for part B to land on the same SMs in
    # both shapes.  Functional state then matches exactly; timing state
    # is per-run and legitimately differs.
    part_a = build("phased", 31, 1440).pages
    part_b = build("pointer-chase", 31, 1024).pages
    capacity = max(8, int(len(set(part_a + part_b)) * 0.6))

    concat_sim = UVMSimulator(make_policy(policy, capacity), capacity)
    concat_sim.run(part_a + part_b, fast=level)

    sequential_sim = UVMSimulator(make_policy(policy, capacity), capacity)
    sequential_sim.run(part_a, fast=level)
    sequential_sim.run(part_b, fast=level)

    assert _functional_state(concat_sim) == _functional_state(
        sequential_sim
    ), f"concat != sequential for {policy} at tier {level}"


@pytest.mark.parametrize("kind", sorted(GENERATORS))
@pytest.mark.parametrize("level", LEVELS)
def test_full_residency_never_evicts(kind: str, level: int) -> None:
    """capacity == footprint: compulsory faults only, zero evictions."""
    trace = build(kind, 37, 1024)
    run = run_level(trace.pages, "lru", trace.footprint_pages, level)
    driver = run.metrics["driver"]
    assert driver["evictions"] == 0
    assert driver["capacity_faults"] == 0
    assert driver["faults"] == driver["compulsory_faults"] \
        == trace.footprint_pages
    assert run.evictions == []


@pytest.mark.parametrize("level", LEVELS)
def test_duplicate_only_trace_is_all_hits_after_first(level: int) -> None:
    """A single-page trace faults once; everything after is a TLB hit."""
    run = run_level([42] * 512, "lru", 8, level)
    driver = run.metrics["driver"]
    assert driver["faults"] == 1
    assert driver["evictions"] == 0
    hits = (run.metrics["l1_tlb_hits"] + run.metrics["l2_tlb_hits"]
            + run.metrics["walker_hits"])
    assert hits == 511
