"""Corruption tests: break one structure, expect one precise violation.

Each test drives a real simulation far enough to populate the structure
under attack, corrupts it the way a simulator bug would (a missed
shootdown, a dangling chain link, a lost population bit, a frame-map
desync), and asserts the sanitizer raises :class:`InvariantViolation`
with exactly the expected rule code.
"""

from __future__ import annotations

import pytest

from repro.check import InvariantChecker, InvariantViolation
from repro.core import soa
from repro.core.hpe import HPEConfig, HPEPolicy
from repro.core.pageset import COUNTER_CAP, PageSetEntry, SetPart
from repro.policies.lru import LRUPolicy
from repro.sim.engine import UVMSimulator

from tests.conftest import cyclic_trace


#: Capacity deliberately not a multiple of the 16-page set size, so the
#: final state keeps partially-resident and partially-populated sets.
CAPACITY = 60
PAGES = 100  # oversubscribed: evictions and refaults guaranteed


def _run_simulator(policy) -> UVMSimulator:
    """Replay a thrashing loop so every structure is populated."""
    simulator = UVMSimulator(policy, CAPACITY)
    trace = cyclic_trace(PAGES, 3) + list(range(10))
    for page in trace:
        if not simulator.frame_pool.is_resident(page):
            simulator.driver.service_fault(page)
    return simulator


def _first_nonempty_partition(chain) -> list:
    """``(key, entry)`` pairs of the first populated partition."""
    return next(
        items
        for items in (
            list(chain.iter_partition_items(p))
            for p in (soa.OLD, soa.MIDDLE, soa.NEW)
        )
        if items
    )


def _force_chain_entry(chain, entry, partition=soa.NEW) -> None:
    """Link *entry* into a partition bypassing ``insert`` bookkeeping.

    Reproduces what the pre-SoA tests did with a raw
    ``chain._new[key] = entry`` dict write: the slot is threaded into
    the target partition's list without the duplicate-key check, the
    way a buggy division or a P1/P2 pointer bug would corrupt the SoA
    chain.
    """
    if not chain._free:
        chain._grow()
    slot = chain._free.pop()
    chain._keys[slot] = entry.key
    chain._payloads[slot] = entry
    chain._slot.setdefault(entry.key, slot)
    # stamp such that `intervals - stamp` derives the target partition
    chain._stamp[slot] = chain.intervals - (soa.NEW - partition)
    chain._link_tail(slot, partition)


@pytest.fixture
def hpe_sim() -> UVMSimulator:
    return _run_simulator(HPEPolicy(HPEConfig()))


@pytest.fixture
def lru_sim() -> UVMSimulator:
    return _run_simulator(LRUPolicy())


def _expect(simulator: UVMSimulator, code: str) -> InvariantViolation:
    checker = InvariantChecker(simulator)
    with pytest.raises(InvariantViolation) as excinfo:
        checker.check_all()
    assert excinfo.value.code == code, excinfo.value.render()
    return excinfo.value


def _first_chain_entry(simulator: UVMSimulator) -> PageSetEntry:
    entry = next(iter(simulator.policy.chain.iter_payloads_lru()))
    assert entry is not None
    return entry


def test_clean_simulator_passes(hpe_sim: UVMSimulator) -> None:
    checker = InvariantChecker(hpe_sim)
    assert checker.check_all() > 0
    assert checker.stats.sweeps == 1


def test_clean_lru_simulator_passes(lru_sim: UVMSimulator) -> None:
    assert InvariantChecker(lru_sim).check_all() > 0


# -- frame maps ------------------------------------------------------------


def test_dropped_reverse_mapping(lru_sim: UVMSimulator) -> None:
    pool = lru_sim.frame_pool
    frame = next(iter(pool._page_of_frame))
    del pool._page_of_frame[frame]
    _expect(lru_sim, "frame-bijection")


def test_crossed_frame_mapping(lru_sim: UVMSimulator) -> None:
    pool = lru_sim.frame_pool
    pages = list(pool._frame_of_page)[:2]
    a, b = pages
    pool._frame_of_page[a], pool._frame_of_page[b] = (
        pool._frame_of_page[b], pool._frame_of_page[a],
    )
    _expect(lru_sim, "frame-bijection")


def test_free_list_overlaps_occupied(lru_sim: UVMSimulator) -> None:
    pool = lru_sim.frame_pool
    pool._free.append(next(iter(pool._page_of_frame)))
    _expect(lru_sim, "frame-bijection")


# -- page table ------------------------------------------------------------


def test_stale_valid_pte(lru_sim: UVMSimulator) -> None:
    """A PTE left valid after its page was unmapped (missed invalidate)."""
    table = lru_sim.page_table
    resident = set(lru_sim.frame_pool._frame_of_page)
    page, entry = next(
        (p, e) for p, e in table._entries.items() if e.valid
    )
    del lru_sim.frame_pool._frame_of_page[page]
    lru_sim.frame_pool._page_of_frame = {
        f: p for f, p in lru_sim.frame_pool._page_of_frame.items()
        if p != page
    }
    lru_sim.frame_pool._free.append(entry.frame)
    assert page in resident
    _expect(lru_sim, "page-table-residency")


def test_pte_frame_mismatch(lru_sim: UVMSimulator) -> None:
    table = lru_sim.page_table
    page, entry = next(
        (p, e) for p, e in table._entries.items() if e.valid
    )
    entry.frame = (entry.frame + 1) % CAPACITY
    _expect(lru_sim, "page-table-residency")


# -- TLBs ------------------------------------------------------------------


def test_missed_tlb_shootdown(lru_sim: UVMSimulator) -> None:
    """A TLB still translating an evicted page is a shootdown bug."""
    evicted_page = 0xDEAD00
    assert not lru_sim.frame_pool.is_resident(evicted_page)
    tlb = lru_sim.hierarchy.l1_tlbs[0]
    tlb._sets[evicted_page & tlb._set_mask][evicted_page] = 0
    _expect(lru_sim, "tlb-subset")


# -- driver counters -------------------------------------------------------


def test_driver_counter_rewind(lru_sim: UVMSimulator) -> None:
    checker = InvariantChecker(lru_sim)
    checker.check_all()  # records the shadow values
    lru_sim.driver.stats.evictions -= 1
    with pytest.raises(InvariantViolation) as excinfo:
        checker.check_all()
    assert excinfo.value.code == "counter-monotonic"


def test_fault_kinds_must_sum(lru_sim: UVMSimulator) -> None:
    lru_sim.driver.stats.compulsory_faults += 1
    lru_sim.driver.stats.faults += 2  # keeps every counter monotonic
    _expect(lru_sim, "counter-monotonic")


# -- HPE chain -------------------------------------------------------------


def test_chain_link_in_two_partitions(hpe_sim: UVMSimulator) -> None:
    """P1/P2 corruption: the same key chained in two partitions."""
    chain = hpe_sim.policy.chain
    key, entry = _first_nonempty_partition(chain)[0]
    current = chain._partition_of_slot(chain._slot[key])
    other = next(
        p for p in (soa.NEW, soa.MIDDLE, soa.OLD) if p != current
    )
    _force_chain_entry(chain, entry, partition=other)
    _expect(hpe_sim, "chain-partition")


def test_chain_entry_filed_under_wrong_key(hpe_sim: UVMSimulator) -> None:
    chain = hpe_sim.policy.chain
    key, _entry = _first_nonempty_partition(chain)[0]
    slot = chain._slot.pop(key)
    wrong = (key[0] ^ 0x1, key[1])
    chain._keys[slot] = wrong
    chain._slot[wrong] = slot
    _expect(hpe_sim, "chain-partition")


def test_interval_counter_rewind(hpe_sim: UVMSimulator) -> None:
    checker = InvariantChecker(hpe_sim)
    checker.check_all()
    hpe_sim.policy.chain.intervals -= 1
    with pytest.raises(InvariantViolation) as excinfo:
        checker.check_all()
    assert excinfo.value.code == "chain-interval"


def test_fully_evicted_entry_left_chained(hpe_sim: UVMSimulator) -> None:
    entry = _first_chain_entry(hpe_sim)
    entry.resident_mask = 0
    _expect(hpe_sim, "chain-resident")


def test_lost_population_bit(hpe_sim: UVMSimulator) -> None:
    """A resident page whose bit-vector population bit was cleared."""
    entry = next(
        e for e in hpe_sim.policy.chain.iter_payloads_lru() if e.resident_mask
    )
    entry.bit_vector &= ~(entry.resident_mask & -entry.resident_mask)
    _expect(hpe_sim, "bitvector-subset")


def test_population_bit_outside_member_mask(hpe_sim: UVMSimulator) -> None:
    entry = _first_chain_entry(hpe_sim)
    entry.member_mask &= ~(entry.bit_vector & -entry.bit_vector)
    violation = _expect(hpe_sim, "bitvector-subset")
    assert "member" in str(violation)


def test_touch_counter_over_cap(hpe_sim: UVMSimulator) -> None:
    entry = _first_chain_entry(hpe_sim)
    entry.counter = COUNTER_CAP + 1
    _expect(hpe_sim, "counter-cap")


def test_touch_counter_negative(hpe_sim: UVMSimulator) -> None:
    entry = _first_chain_entry(hpe_sim)
    entry.counter = -1
    _expect(hpe_sim, "counter-cap")


def test_divided_halves_overlap(hpe_sim: UVMSimulator) -> None:
    """Primary and secondary of a divided set claiming the same offsets."""
    policy = hpe_sim.policy
    chain = policy.chain
    primary = next(
        e for e in chain.iter_payloads_lru()
        if e.part is SetPart.PRIMARY and e.resident_mask
    )
    primary.divided = True
    secondary = PageSetEntry(
        tag=primary.tag,
        page_set_size=policy.config.page_set_size,
        part=SetPart.SECONDARY,
        member_mask=primary.member_mask,  # overlap: same offsets
        bit_vector=primary.bit_vector,
        resident_mask=0,
    )
    # Bypass chain.insert bookkeeping exactly like a buggy division would.
    _force_chain_entry(chain, secondary)
    with pytest.raises(InvariantViolation) as excinfo:
        InvariantChecker(hpe_sim).check_all()
    # The zero-resident synthetic secondary trips chain-resident first
    # unless given bits; either way the sweep must refuse this state.
    assert excinfo.value.code in {"divided-disjoint", "chain-resident"}


def test_undivided_primary_with_secondary(hpe_sim: UVMSimulator) -> None:
    policy = hpe_sim.policy
    chain = policy.chain
    primary = next(
        e for e in chain.iter_payloads_lru()
        if e.part is SetPart.PRIMARY and e.resident_mask
    )
    offset_bit = primary.resident_mask & -primary.resident_mask
    # Carve the claimed offset out of the primary so only the "is the
    # primary marked divided?" invariant is violated.
    primary.member_mask &= ~offset_bit
    primary.bit_vector &= ~offset_bit
    primary.resident_mask &= ~offset_bit
    assert primary.resident_mask, "carving emptied the primary"
    primary.divided = False
    # The secondary takes over the carved offset, so every residency
    # count stays consistent — only the missing `divided` flag is wrong.
    secondary = PageSetEntry(
        tag=primary.tag,
        page_set_size=policy.config.page_set_size,
        part=SetPart.SECONDARY,
        member_mask=offset_bit,
        bit_vector=offset_bit,
        resident_mask=offset_bit,
    )
    _force_chain_entry(chain, secondary)
    violation = _expect(hpe_sim, "divided-disjoint")
    assert "not marked divided" in str(violation)


def test_resident_counter_desync(hpe_sim: UVMSimulator) -> None:
    """HPE's resident counter doubles as resident_count(): the desync is
    caught against the frame pool before the chain-bit cross-check."""
    hpe_sim.policy._resident_pages += 1
    _expect(hpe_sim, "policy-residency")


def test_chain_claims_nonresident_page(hpe_sim: UVMSimulator) -> None:
    """A chain resident bit for a page the frame pool evicted."""
    policy = hpe_sim.policy
    entry = next(
        e for e in policy.chain.iter_payloads_lru()
        if e.bit_vector & ~e.resident_mask
    )
    missing = entry.bit_vector & ~entry.resident_mask
    entry.resident_mask |= missing & -missing
    _expect(hpe_sim, "hpe-residency")


# -- HIR / history ---------------------------------------------------------


def test_hir_counter_out_of_range(hpe_sim: UVMSimulator) -> None:
    hir = hpe_sim.policy.hir
    for lines in hir._sets:
        for line in lines.values():
            line.counters[0] = 9  # 2-bit field: max is 3
            _expect(hpe_sim, "hir-bounds")
            return
    # No HIR line populated by this trace: desync the touch order instead.
    hir._touch_order.append(0xBEEF)
    _expect(hpe_sim, "hir-bounds")


def test_hir_touch_order_desync(hpe_sim: UVMSimulator) -> None:
    hpe_sim.policy.hir._touch_order.append(0xBEEF)
    _expect(hpe_sim, "hir-bounds")


def test_history_mask_empty(hpe_sim: UVMSimulator) -> None:
    hpe_sim.policy.history._records[0x42] = 0
    _expect(hpe_sim, "history-mask")


def test_history_mask_too_wide(hpe_sim: UVMSimulator) -> None:
    width = hpe_sim.policy.config.page_set_size
    hpe_sim.policy.history._records[0x42] = 1 << width
    _expect(hpe_sim, "history-mask")


# -- checker mechanics -----------------------------------------------------


def test_violation_render_includes_snapshot() -> None:
    violation = InvariantViolation(
        "demo-code", "something broke", {"page": 7, "frame": 3}
    )
    text = violation.render()
    assert "[demo-code]" in text
    assert "page = 7" in text
    assert "frame = 3" in text


def test_fast_mode_caps_sweeps(lru_sim: UVMSimulator) -> None:
    checker = InvariantChecker(lru_sim, check_every=1, max_faults=5)
    for fault in range(10):
        checker.after_fault(fault)
    assert checker.stats.faults_seen == 10
    assert checker.stats.capped is True
    assert checker.stats.sweeps == 5


def test_check_every_sampling(lru_sim: UVMSimulator) -> None:
    checker = InvariantChecker(lru_sim, check_every=4)
    for fault in range(12):
        checker.after_fault(fault)
    assert checker.stats.sweeps == 3


def test_invalid_construction(lru_sim: UVMSimulator) -> None:
    with pytest.raises(ValueError):
        InvariantChecker(lru_sim, check_every=0)
    with pytest.raises(ValueError):
        InvariantChecker(lru_sim, max_faults=0)


# -- end-to-end regression -------------------------------------------------


@pytest.mark.parametrize("policy_name", ["arc", "hpe"])
def test_prefetch_run_survives_per_fault_sweeps(
    policy_name: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    """Fault-around prefetching keeps every TLB/page-table invariant.

    Regression for a real bug this sanitizer caught: prefetch neighbours
    used to migrate after the demand page, so any policy whose victim
    choice can land on a just-inserted page (ARC evicting from T2's LRU
    end on this exact workload; HPE's MRU-C by design) could evict the
    page being serviced mid-fault — the engine then cached a stale TLB
    translation for it (``tlb-subset``, "missed shootdown").
    """
    from repro.experiments.runner import make_policy
    from repro.sim.engine import simulate
    from repro.workloads import get_application

    monkeypatch.setenv("REPRO_SANITIZE_EVERY", "1")
    spec = get_application("BFS")
    trace = spec.build(seed=7, scale=0.05)
    capacity = max(1, int(trace.footprint_pages * 0.5))
    result = simulate(
        trace.pages,
        make_policy(policy_name, capacity, spec),
        capacity,
        prefetch_degree=1,
        workload_name="BFS",
        sanitize=True,
    )
    stats = result.extras["sanitizer"]
    assert stats.sweeps == stats.faults_seen + 1  # +1 final sweep
    assert stats.invariants_checked > 0
