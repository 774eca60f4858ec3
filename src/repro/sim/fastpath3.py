"""Fastpath v3 — the relaxed, *metric-equivalent* batch kernel.

Tiers 0 and 1 are bit-identical by construction; this tier is not.
It trades a small, tolerance-gated drift in ``key_metrics()`` for
batching the one path the retired tier-2 batch kernel ("v2") still
replayed scalar — **eviction chains** — and is therefore **opt-in
only**: the env var never selects it
(:func:`repro.sim.config.resolve_fastpath_level` clamps the ambient
path to tier 1) and the differential harness compares it against the
reference under declared per-metric tolerances plus golden *trend*
checks rather than equality (DESIGN §13, ``repro.check.diffrun``).

Everything classification-side is inherited from v2 and stays exact:
distinct-page segments, the presence-masked candidate split with
pressure-refinement proofs, live-probed flagged events, eviction flips,
deferred TLB fills with closed-form batched eviction counts, and the
closed-form warp/fault-queue timing recurrences.  Hit/miss/fault
classification therefore matches the reference event for event *given
the same structural state*.  What v3 changes is how a run of
consecutive faults is serviced: instead of v2's per-fault scalar chain
(select victim → shoot → page in, one event at a time), v3 services
the whole run in capacity-bounded **chunks** — all victims first,
then all page-ins, with one vectorized fault-queue timing pass.

Documented relaxations (the §13 contract)
-----------------------------------------

R1  Victims for a chunk are selected *before* any of the chunk's
    page-ins (``EvictionPolicy.select_victims_batch``), where the
    reference interleaves select → page-in per fault.  For stock LRU
    the victim sequence is provably unchanged (chunks never exceed
    capacity, so every victim predates every chunk page-in); adaptive
    policies (HPE's dynamic adjustment, CLOCK-Pro's hands, ARC's
    ghosts) may choose different victims.
R2  HPE drains each strategy-selected page set to exhaustion before
    searching again (``HPEPolicy.select_victims_batch``), so ``MRU_C``
    jump adjustments move between sets, not pages.
R3  Within a chunk, all victim shootdowns precede the chunk's deferred
    TLB fills, where the reference interleaves them per fault — the
    TLB sets end with the same members only when no fill-pressure
    eviction lands in between, so set contents (and later hit/miss
    splits) can drift.

Divergent victims change future residency, so every downstream metric
— ``faults``, ``capacity_faults``, ``evictions``, byte counters,
TLB/walker hit splits, ``cycles`` — may drift within the declared
tolerances.  What stays **exact**: ``policy``, ``workload``,
``capacity_pages``, ``footprint_pages``, ``trace_length``,
``instructions``, ``compulsory_faults`` (first-touch sets are
eviction-independent), ``prefetches``, HIR transfer boundaries (every
16th fault) and HPE interval advances (every 64th) relative to the
fault sequence, and per-fault PCIe byte accounting.

Fallback: :func:`eligible` mirrors v2's conditions (no obs, no
sanitizer, no offline policy, no prefetching) plus flat-array bounds;
ineligible runs drop to tier 1 in
:meth:`repro.sim.engine.UVMSimulator.run`, which records the executed
tier in ``extras["fastpath"]``.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.core.soa import Bitmap
from repro.memory.page_table import PageTableEntry
from repro.policies.base import EvictionPolicy
from repro.policies.lru import LRUPolicy
from repro.tlb.tlb import TLB

if TYPE_CHECKING:
    from repro.sim.engine import UVMSimulator

try:  # numpy is optional at runtime (test extra); gate, don't require.
    import numpy as np
except ImportError:  # pragma: no cover - exercised via eligible()
    np = None  # type: ignore[assignment]

#: Hard cap on one segment's length (bounds per-segment numpy scratch).
SEGMENT_CAP = 8192

#: Distinct-page prefixes shorter than this are replayed scalar.  The
#: v3 classifier is fully vectorized, so it amortizes on shorter
#: segments than v2's python classification pass did.
MIN_SEGMENT = 64

#: Events replayed by the scalar-generic loop when segmentation fails
#: (adversarial duplicate-heavy traces) before re-trying segmentation.
SCALAR_CHUNK = 256

#: Below this many pending L2 fills, a flush replays plain sequential
#: inserts instead of numpy set-grouping.
SMALL_FLUSH = 32

#: Upper bound on one batched fault chunk.  Smaller chunks keep the
#: policy's view closer to the reference interleaving (less R1 drift
#: for adaptive policies) at the cost of more flushes and batch calls;
#: the value balances measured HPE drift against throughput (16 keeps
#: the bench BFS/HPE cell metric-exact; ≥48 crosses HPE's page-set
#: granularity and the victim stream diverges sharply).
FAULT_CHUNK = 16

#: Skip the pressure-refinement pass when a level has more sets than
#: this (the per-set cumsum sweep would dominate); candidates then stay
#: flagged, which is always sound.
MAX_REFINE_KEYS = 64

#: Pages at or above this bound disable the kernel: the flat presence
#: and residency arrays are indexed by page number.
MAX_PAGE = 1 << 22

#: SM-count bound so every presence bitmask (one bit per L1 plus the
#: L2 bit) fits the int64 presence array.
MAX_SMS = 62

#: When set to a dict (tests / perf triage), :func:`replay` tallies how
#: many events each internal path handled — keys ``segments``,
#: ``hit_run_events``, ``fault_run_events``, ``fault_chunks``,
#: ``batched_evictions``, ``flagged_events``, ``scalar_events``,
#: ``flushes``.
DEBUG_COUNTS: Optional[dict[str, int]] = None


def numpy_available() -> bool:
    """``True`` when the vector kernel's numpy dependency is importable."""
    return np is not None


def eligible(sim: "UVMSimulator", trace: Optional[Sequence[int]] = None) -> bool:
    """Can ``sim`` (replaying ``trace``) run the relaxed v3 kernel?

    The v2 conditions apply unchanged — observation and sanitizing need
    live per-event state, offline policies consume trace positions, and
    fault-around prefetching migrates pages the classifier cannot see.
    On top of those, v3 indexes flat arrays by page number, so page
    values must stay under :data:`MAX_PAGE` and the SM count under
    :data:`MAX_SMS`.  Ineligible runs fall back to tier 1.
    """
    if (
        np is None
        or sim.obs is not None
        or sim.checker is not None
        or sim.policy.requires_future
        or sim.driver.prefetch_degree != 0
        or sim.config.num_sms > MAX_SMS
    ):
        return False
    fop = sim.frame_pool._frame_of_page
    if fop and max(fop) >= MAX_PAGE:
        return False
    if trace is not None and len(trace) > 0:
        arr = np.asarray(trace, dtype=np.int64)
        if int(arr.min()) < 0 or int(arr.max()) >= MAX_PAGE:
            return False
    return True


def replay(sim: "UVMSimulator", trace: Sequence[int]) -> int:
    """Replay ``trace`` on ``sim`` with the relaxed kernel; return cycles.

    Caller must have checked :func:`eligible`.  Mutates the simulator's
    structures (TLBs, page table, frame pool, policy, stats) to a state
    *metric-equivalent* to the reference loop under the §13 contract.
    """
    assert np is not None
    config = sim.config
    num_sms = config.num_sms
    total_warps = config.total_warps
    warps_per_sm = config.warps_per_sm
    mem_latency = config.memory_latency_cycles
    pcie = config.pcie
    fault_cycles = pcie.fault_service_cycles
    transfer_cycles = pcie.transfer_cycles
    policy = sim.policy
    consume_bytes = getattr(policy, "consume_transfer_bytes", None)
    policy_on_fault_pending = policy.on_fault_pending
    policy_on_page_in = policy.on_page_in
    policy_select_victim = policy.select_victim
    select_victims_batch = policy.select_victims_batch
    has_pending_cb = (
        policy.on_fault_pending.__func__  # type: ignore[attr-defined]
        is not EvictionPolicy.on_fault_pending
    )
    lru_chain = policy._chain if type(policy) is LRUPolicy else None
    driver = sim.driver
    stats = driver.stats
    ever_touched, page_size = driver.fastpath_state()
    frame_pool = sim.frame_pool
    fop = frame_pool._frame_of_page
    pof = frame_pool._page_of_frame
    free_list = frame_pool._free
    pt_entries = sim.page_table._entries
    hierarchy = sim.hierarchy

    l1_states = [tlb.fastpath_state() for tlb in hierarchy.l1_tlbs]
    l1_sets = [state[0] for state in l1_states]
    l1_mask = l1_states[0][1]
    l1_assoc = l1_states[0][2]
    l1_latency = l1_states[0][3]
    l2_sets, l2_mask, l2_assoc, l2_latency = \
        hierarchy.l2_tlb.fastpath_state()
    l1_nsets = l1_mask + 1
    l2_nsets = l2_mask + 1
    l1_stats = [tlb.stats for tlb in hierarchy.l1_tlbs]
    l2_stats = hierarchy.l2_tlb.stats
    walker = sim.walker
    walk_latency = walker.walk_latency_cycles
    l1_hit_total = l1_latency + mem_latency
    l2_hit_total = l1_latency + l2_latency + mem_latency
    walk_hit_total = l1_latency + l2_latency + walk_latency + mem_latency
    fault_begin_latency = l1_latency + l2_latency + walk_latency
    listeners = walker._hit_listeners
    if not listeners:
        hit_dispatch = 0
    elif len(listeners) == 1 and listeners[0] == policy.on_walk_hit:
        hit_dispatch = 1
    else:
        hit_dispatch = 2
    on_walk_hits = policy.on_walk_hits

    pages_arr = np.asarray(trace, dtype=np.int64)
    n = int(pages_arr.shape[0])

    # Previous-occurrence index (one stable argsort for the whole trace)
    # makes every distinct-prefix query a single slice scan.
    prev_arr = np.full(n, -1, dtype=np.int64)
    if n > 1:
        order = np.argsort(pages_arr, kind="stable")
        sorted_pages = pages_arr[order]
        same = sorted_pages[1:] == sorted_pages[:-1]
        prev_arr[order[1:][same]] = order[:-1][same]

    # --- flat page-indexed state (the SoA core the classifier reads) ---
    # One int64 bitmask per page (bit ``s`` while SM ``s``'s L1 holds it,
    # ``l2bit`` while the L2 does; 0 == absent) and one residency bool
    # per page, replacing v2's presence dict — segment classification
    # becomes two vector gathers.  Every page the kernel can index —
    # trace events, initial residents, TLB contents (a subset of the
    # residents) — is below ``top`` by the eligibility bound.
    top = 1
    if n:
        top = int(pages_arr.max()) + 1
    for p in fop:
        if p >= top:
            top = p + 1
    l2bit = 1 << num_sms
    not_l2 = ~l2bit
    sm_bits = [1 << s for s in range(num_sms)]
    sm_nbits = [~(1 << s) for s in range(num_sms)]
    presence = [0] * top
    for s in range(num_sms):
        bit = sm_bits[s]
        for entries_d in l1_sets[s]:
            for p in entries_d:
                presence[p] |= bit
    for entries_d in l2_sets:
        for p in entries_d:
            presence[p] |= l2bit

    # --- mutable replay state (shared by the nested helpers) -----------
    sm_issue = [0] * num_sms
    warp_ready = [0] * total_warps
    fq = 0  # fault_queue_free
    transfer_memo: dict[int, int] = {}

    l1_hits_b = [0] * num_sms
    l1_misses_b = [0] * num_sms
    l1_ev_b = [0] * num_sms
    l2_hits_b = 0
    l2_misses_b = 0
    l2_ev_b = 0
    walks_b = 0
    whits_b = 0
    wfaults_b = 0
    fault_no = stats.faults  # absolute fault sequence number
    d_comp = 0
    d_cap = 0
    d_evict = 0
    d_bin = 0
    d_bout = 0

    # Deferred TLB fills, flushed before any real TLB probe or shootdown.
    pend_l2_p: list[int] = []
    pend_l2_f: list[int] = []
    pend_l1_p: list[list[int]] = [[] for _ in range(num_sms)]
    pend_l1_f: list[list[int]] = [[] for _ in range(num_sms)]
    # Pages with a deferred fill outstanding: shootdowns consult this so
    # fault chunks only pay a flush when a victim actually has one.
    pend_pages: set[int] = set()

    # Per-segment registries of the last pressure-unflagged position in
    # each set (cleared by process_segment); a shootdown that removes an
    # entry from one of these sets before that position invalidates the
    # pressure proof and degrades the segment remainder.
    fr1_max: dict[int, int] = {}
    fr2_max: dict[int, int] = {}

    apply_batched = TLB.apply_batched_misses
    dbg = DEBUG_COUNTS

    def flush_pending() -> None:
        """Apply every deferred TLB fill, counting LRU evictions."""
        nonlocal l2_ev_b
        count = len(pend_l2_p)
        if not count:
            return
        pend_pages.clear()
        if dbg is not None:
            dbg["flushes"] = dbg.get("flushes", 0) + 1
        if count <= SMALL_FLUSH:
            # Sequential replay — exact by construction.
            for p, f in zip(pend_l2_p, pend_l2_f):
                entries = l2_sets[p & l2_mask]
                if len(entries) >= l2_assoc:
                    old, _ = entries.popitem(last=False)
                    l2_ev_b += 1
                    presence[old] &= not_l2
                entries[p] = f
                presence[p] |= l2bit
            pend_l2_p.clear()
            pend_l2_f.clear()
            for s in range(num_sms):
                ps_l = pend_l1_p[s]
                if not ps_l:
                    continue
                fs_l = pend_l1_f[s]
                sets_s = l1_sets[s]
                bit = sm_bits[s]
                nbit = sm_nbits[s]
                evs = 0
                for p, f in zip(ps_l, fs_l):
                    entries = sets_s[p & l1_mask]
                    if len(entries) >= l1_assoc:
                        old, _ = entries.popitem(last=False)
                        evs += 1
                        presence[old] &= nbit
                    entries[p] = f
                    presence[p] |= bit
                l1_ev_b[s] += evs
                ps_l.clear()
                fs_l.clear()
            return
        # Presence fixup rule: clear the evictees' bits first, then set
        # the bit for every fill that actually survived in its set (a
        # page can appear in both lists; membership probes decide).
        evicted: list[int] = []
        if l2_nsets == 1:
            l2_ev_b += apply_batched(l2_sets[0], pend_l2_p, pend_l2_f,
                                     l2_assoc, evicted)
        else:
            l2_ev_b += _grouped_apply(l2_sets, l2_mask, l2_assoc,
                                      pend_l2_p, pend_l2_f, evicted)
        for old in evicted:
            presence[old] &= not_l2
        for p in pend_l2_p:
            if p in l2_sets[p & l2_mask]:
                presence[p] |= l2bit
        pend_l2_p.clear()
        pend_l2_f.clear()
        for s in range(num_sms):
            ps_l = pend_l1_p[s]
            if not ps_l:
                continue
            fs_l = pend_l1_f[s]
            evicted.clear()
            if l1_nsets == 1:
                l1_ev_b[s] += apply_batched(l1_sets[s][0], ps_l, fs_l,
                                            l1_assoc, evicted)
            else:
                l1_ev_b[s] += _grouped_apply(l1_sets[s], l1_mask, l1_assoc,
                                             ps_l, fs_l, evicted)
            bit = sm_bits[s]
            nbit = sm_nbits[s]
            sets_s = l1_sets[s]
            for old in evicted:
                presence[old] &= nbit
            for p in ps_l:
                if p in sets_s[p & l1_mask]:
                    presence[p] |= bit
            ps_l.clear()
            fs_l.clear()

    def _grouped_apply(
        sets_list: list[Any],
        mask: int,
        assoc: int,
        ps_l: list[int],
        fs_l: list[int],
        evicted: list[int],
    ) -> int:
        """Group pending fills by set index, apply each group batched."""
        pa = np.array(ps_l, dtype=np.int64)
        fa = np.array(fs_l, dtype=np.int64)
        sid = pa & mask
        order = np.argsort(sid, kind="stable")
        pl = pa[order].tolist()
        fl = fa[order].tolist()
        sid_s = sid[order]
        bounds = (np.flatnonzero(sid_s[1:] != sid_s[:-1]) + 1).tolist()
        bounds.append(len(pl))
        evictions = 0
        start = 0
        for stop in bounds:
            if stop == start:
                continue
            entries = sets_list[pl[start] & mask]
            evictions += apply_batched(entries, pl[start:stop],
                                       fl[start:stop], assoc, evicted)
            start = stop
        return evictions

    def shoot(victim: int) -> int:
        """Masked TLB shootdown for ``victim``; return the removal mask.

        Same per-TLB live ``shootdowns`` counts as the hierarchy's
        shootdown, driven by the flat presence mask.  A victim with a
        deferred fill outstanding forces the flush first; any other
        pending fills stay deferred (they are for distinct pages, so
        the mask is accurate without them).
        """
        if victim in pend_pages:
            flush_pending()
        mm = presence[victim]
        if not mm:
            return 0
        presence[victim] = 0
        full = mm
        if mm & l2bit:
            del l2_sets[victim & l2_mask][victim]
            l2_stats.shootdowns += 1
            mm &= not_l2
        while mm:
            b = mm & -mm
            s2 = b.bit_length() - 1
            del l1_sets[s2][victim & l1_mask][victim]
            l1_stats[s2].shootdowns += 1
            mm ^= b
        return full

    def shoot_degrades(mask: int, victim: int, t: int) -> bool:
        """Did this shootdown invalidate a later pressure-unflag?

        True when the removal hit a set whose guaranteed-insert count
        justified unflagging a position after ``t`` — the only case
        where batch classification can diverge from reality.
        """
        if not mask:
            return False
        if (
            fr2_max
            and mask & l2bit
            and fr2_max.get(victim & l2_mask, -1) > t
        ):
            return True
        if fr1_max:
            mm = mask & (l2bit - 1)
            vset = victim & l1_mask
            while mm:
                b = mm & -mm
                s2 = b.bit_length() - 1
                if fr1_max.get(s2 * l1_nsets + vset, -1) > t:
                    return True
                mm ^= b
        return False

    def lean_fault(page: int) -> tuple[int, Optional[int], int, int]:
        """Service one scalar fault sans TLB fill; return (frame, victim,
        shootdown-removal mask, bytes moved).

        Inlines ``UVMDriver.service_fault`` exactly as v2 does, with the
        flat residency view kept live.
        """
        nonlocal fault_no, d_comp, d_cap, d_evict, d_bin, d_bout
        if pend_l2_p:
            flush_pending()
        fault_no += 1
        if page in ever_touched:
            d_cap += 1
        else:
            ever_touched.add(page)
            d_comp += 1
        policy_on_fault_pending(page)
        victim: Optional[int] = None
        rm_mask = 0
        if not free_list:
            victim = policy_select_victim()
            ve = pt_entries.get(victim)
            if ve is None or not ve.valid:
                raise KeyError(f"page {victim:#x} has no valid mapping")
            ve.valid = False
            try:
                vframe = fop.pop(victim)
            except KeyError:
                raise KeyError(
                    f"page {victim:#x} is not resident"
                ) from None
            del pof[vframe]
            free_list.append(vframe)
            rm_mask = shoot(victim)
            d_evict += 1
            d_bout += page_size
        frame = free_list.pop()
        fop[page] = frame
        pof[frame] = page
        pt_entries[page] = PageTableEntry(frame=frame, faulted_at=fault_no)
        d_bin += page_size
        policy_on_page_in(page, fault_no)
        moved = page_size if victim is None else page_size + page_size
        return frame, victim, rm_mask, moved

    def distribute_l1_misses(g: int, m: int) -> None:
        """Per-SM L1 miss counts for events ``g .. g+m`` (round-robin)."""
        full, rem = divmod(m, num_sms)
        if full:
            for s in range(num_sms):
                l1_misses_b[s] += full
        for d in range(rem):
            l1_misses_b[(g + d) % num_sms] += 1

    def vector_hit_timing(g: int, m: int) -> None:
        """Advance the clock over ``m`` consecutive walk-hit events.

        The per-SM in-order recurrence ``X[k] = max(X[k-1]+1, ready[k])``
        collapses to a running maximum of ``ready[k]-k`` per block of
        ``total_warps`` events; once a block is a fixed point (each
        block shifts by exactly the hit latency) the rest extrapolates
        in O(1).
        """
        latency = walk_hit_total
        full = m // total_warps if m >= total_warps else 0
        if full:
            wr = np.array(warp_ready, dtype=np.int64)
            warp_mat = ((g + np.arange(total_warps, dtype=np.int64))
                        % total_warps).reshape(warps_per_sm, num_sms)
            karr = np.arange(warps_per_sm, dtype=np.int64).reshape(-1, 1)
            issue0 = np.array(
                [sm_issue[(g + d) % num_sms] for d in range(num_sms)],
                dtype=np.int64,
            )
            x_prev: Any = None
            b = 0
            while b < full:
                ready = wr[warp_mat] if x_prev is None else x_prev + latency
                bmat = ready - karr
                np.maximum(bmat[0], issue0, out=bmat[0])
                x = np.maximum.accumulate(bmat, axis=0)
                x += karr
                issue0 = x[-1] + 1
                b += 1
                if (
                    b < full
                    and x_prev is not None
                    and np.array_equal(x, x_prev + latency)
                ):
                    jump = full - b
                    x = x + jump * latency
                    issue0 = x[-1] + 1
                    b = full
                x_prev = x
            wr[warp_mat] = x_prev + latency
            warp_ready[:] = wr.tolist()
            for d in range(num_sms):
                sm_issue[(g + d) % num_sms] = int(issue0[d])
            g += full * total_warps
            m -= full * total_warps
        for j in range(m):
            gg = g + j
            w = gg % total_warps
            s = gg % num_sms
            start = sm_issue[s]
            ready_w = warp_ready[w]
            if ready_w > start:
                start = ready_w
            sm_issue[s] = start + 1
            warp_ready[w] = start + latency

    def vector_fault_timing(g: int, services: list[int]) -> None:
        """Advance the clock over consecutive fault events.

        Fault service serializes through the single fault queue:
        ``fq[c] = max(begin[c], fq[c-1]) + svc[c]`` expands to a prefix
        maximum of ``begin[c] - cum_svc[c-1]`` — one
        ``np.maximum.accumulate`` per block.
        """
        nonlocal fq
        m = len(services)
        full, tail = divmod(m, total_warps)
        if full:
            sv_all = np.array(services[:full * total_warps], dtype=np.int64)
            wr = np.array(warp_ready, dtype=np.int64)
            warp_mat = ((g + np.arange(total_warps, dtype=np.int64))
                        % total_warps).reshape(warps_per_sm, num_sms)
            karr = np.arange(warps_per_sm, dtype=np.int64).reshape(-1, 1)
            issue0 = np.array(
                [sm_issue[(g + d) % num_sms] for d in range(num_sms)],
                dtype=np.int64,
            )
            fq_mat: Any = None
            for b in range(full):
                ready = wr[warp_mat] if fq_mat is None else fq_mat
                bmat = ready - karr
                np.maximum(bmat[0], issue0, out=bmat[0])
                x = np.maximum.accumulate(bmat, axis=0)
                x += karr
                issue0 = x[-1] + 1
                begin = x.ravel() + fault_begin_latency
                sv = sv_all[b * total_warps:(b + 1) * total_warps]
                cum = np.cumsum(sv)
                avec = begin - cum + sv
                np.maximum.accumulate(avec, out=avec)
                fqv = np.maximum(avec, fq) + cum
                fq = int(fqv[-1])
                fq_mat = fqv.reshape(warps_per_sm, num_sms)
            wr[warp_mat] = fq_mat
            warp_ready[:] = wr.tolist()
            for d in range(num_sms):
                sm_issue[(g + d) % num_sms] = int(issue0[d])
            g += full * total_warps
        for j in range(tail):
            svc = services[full * total_warps + j]
            gg = g + j
            w = gg % total_warps
            s = gg % num_sms
            start = sm_issue[s]
            ready_w = warp_ready[w]
            if ready_w > start:
                start = ready_w
            sm_issue[s] = start + 1
            begin_t = start + fault_begin_latency
            if fq > begin_t:
                begin_t = fq
            fq = begin_t + svc
            warp_ready[w] = fq

    def run_hits(g: int, pages_run: list[int]) -> None:
        """Replay a run of classified walk-hit events starting at ``g``."""
        nonlocal l2_misses_b, walks_b, whits_b
        m = len(pages_run)
        if dbg is not None:
            dbg["hit_runs"] = dbg.get("hit_runs", 0) + 1
            dbg["hit_run_events"] = dbg.get("hit_run_events", 0) + m
        frames: list[int] = []
        ap = frames.append
        if hit_dispatch == 1:
            on_walk_hits(pages_run)
            for p in pages_run:
                e = pt_entries[p]
                e.walk_hits += 1
                ap(e.frame)
        elif hit_dispatch == 0:
            for p in pages_run:
                e = pt_entries[p]
                e.walk_hits += 1
                ap(e.frame)
        else:
            for p in pages_run:
                e = pt_entries[p]
                e.walk_hits += 1
                for listener in listeners:
                    listener(p)
                ap(e.frame)
        l2_misses_b += m
        walks_b += m
        whits_b += m
        distribute_l1_misses(g, m)
        pend_l2_p.extend(pages_run)
        pend_l2_f.extend(frames)
        pend_pages.update(pages_run)
        for s in range(num_sms):
            idx0 = (s - g) % num_sms
            if idx0 < m:
                pend_l1_p[s].extend(pages_run[idx0::num_sms])
                pend_l1_f[s].extend(frames[idx0::num_sms])
        vector_hit_timing(g, m)

    def fault_run(
        g: int,
        pages_run: list[int],
        on_evict: Callable[[int, int], None],
    ) -> None:
        """A run of faults, serviced in capacity-bounded batched chunks.

        Per chunk: all victims are selected up front through the
        policy's batch API (R1/R2), evicted with presence-masked
        shootdowns, then every page faults in *in order* — so the fault
        sequence numbers, HIR/interval boundaries, first-touch
        classification, and per-fault PCIe byte charges all match the
        reference relative to the fault stream.  ``on_evict`` receives
        each (victim, removal-mask) so the caller can flip the victim's
        future segment position and audit its pressure proofs.
        """
        nonlocal fault_no, d_comp, d_cap, d_evict, d_bin, d_bout
        nonlocal l2_misses_b, walks_b, wfaults_b
        total = len(pages_run)
        if dbg is not None:
            dbg["fault_run_events"] = \
                dbg.get("fault_run_events", 0) + total
        l2_misses_b += total
        walks_b += total
        wfaults_b += total
        distribute_l1_misses(g, total)
        base1 = transfer_memo.get(page_size)
        if base1 is None:
            base1 = fault_cycles + transfer_cycles(page_size)
            transfer_memo[page_size] = base1
        base2 = transfer_memo.get(2 * page_size)
        if base2 is None:
            base2 = fault_cycles + transfer_cycles(2 * page_size)
            transfer_memo[2 * page_size] = base2
        done = 0
        while done < total:
            if dbg is not None:
                dbg["fault_chunks"] = dbg.get("fault_chunks", 0) + 1
            # A chunk never exceeds capacity, so its victims are all
            # resident at chunk start and the batch drain cannot starve.
            avail = len(free_list) + len(fop)
            m = total - done
            if m > avail:
                m = avail
            # Stock LRU's victim sequence is chunk-size-invariant (every
            # victim predates every chunk page-in), so only adaptive
            # policies need the drift-bounding small chunks.
            if lru_chain is None and m > FAULT_CHUNK:
                m = FAULT_CHUNK
            if dbg is not None and m > dbg.get("max_fault_chunk", 0):
                dbg["max_fault_chunk"] = m
            chunk = pages_run[done:done + m]
            need = m - len(free_list)
            if need > 0:
                victims = select_victims_batch(need)
                if dbg is not None:
                    dbg["batched_evictions"] = \
                        dbg.get("batched_evictions", 0) + need
                for v in victims:
                    ve = pt_entries.get(v)
                    if ve is None or not ve.valid:
                        raise KeyError(
                            f"page {v:#x} has no valid mapping"
                        )
                    ve.valid = False
                    try:
                        vframe = fop.pop(v)
                    except KeyError:
                        raise KeyError(
                            f"page {v:#x} is not resident"
                        ) from None
                    del pof[vframe]
                    free_list.append(vframe)
                    on_evict(v, shoot(v))
                d_evict += need
                d_bout += need * page_size
            else:
                need = 0
            free_n = m - need
            # Free frames pop from the tail; slice + reverse mirrors the
            # per-fault pop order (frame identity is metric-invisible).
            frames = free_list[-m:][::-1]
            del free_list[-m:]
            fno = fault_no
            if consume_bytes is None:
                # Constant per-fault service cycles: build the vector
                # once instead of appending inside the install loop.
                services = [base1] * free_n + [base2] * need
                if lru_chain is not None and not has_pending_cb:
                    # Stock LRU: the chain update is one dict store.
                    for p, f in zip(chunk, frames):
                        fno += 1
                        if p in ever_touched:
                            d_cap += 1
                        else:
                            ever_touched.add(p)
                            d_comp += 1
                        fop[p] = f
                        pof[f] = p
                        pt_entries[p] = PageTableEntry(
                            frame=f, faulted_at=fno)
                        lru_chain[p] = None
                else:
                    for p, f in zip(chunk, frames):
                        fno += 1
                        if p in ever_touched:
                            d_cap += 1
                        else:
                            ever_touched.add(p)
                            d_comp += 1
                        if has_pending_cb:
                            policy_on_fault_pending(p)
                        fop[p] = f
                        pof[f] = p
                        pt_entries[p] = PageTableEntry(
                            frame=f, faulted_at=fno)
                        if lru_chain is not None:
                            lru_chain[p] = None
                        else:
                            policy_on_page_in(p, fno)
            else:
                services = []
                sap = services.append
                for j, p in enumerate(chunk):
                    fno += 1
                    if p in ever_touched:
                        d_cap += 1
                    else:
                        ever_touched.add(p)
                        d_comp += 1
                    if has_pending_cb:
                        policy_on_fault_pending(p)
                    f = frames[j]
                    fop[p] = f
                    pof[f] = p
                    pt_entries[p] = PageTableEntry(frame=f, faulted_at=fno)
                    if lru_chain is not None:
                        lru_chain[p] = None
                    else:
                        policy_on_page_in(p, fno)
                    svc = base1 if j < free_n else base2
                    extra = consume_bytes()
                    if extra:
                        svc += transfer_cycles(extra)
                    sap(svc)
            fault_no = fno
            d_bin += m * page_size
            pend_l2_p.extend(chunk)
            pend_l2_f.extend(frames)
            pend_pages.update(chunk)
            gc = g + done
            for s in range(num_sms):
                idx0 = (s - gc) % num_sms
                if idx0 < m:
                    pend_l1_p[s].extend(chunk[idx0::num_sms])
                    pend_l1_f[s].extend(frames[idx0::num_sms])
            vector_fault_timing(gc, services)
            done += m

    def scalar_generic(i0: int, count: int) -> None:
        """Exact v1 loop body over ``trace[i0:i0+count]``.

        Always sound: probes the live TLB dictionaries (after flushing
        deferred fills) and fills them eagerly.  Used for short or
        duplicate-heavy stretches and for degraded segment remainders.
        """
        nonlocal l2_hits_b, l2_misses_b, l2_ev_b
        nonlocal walks_b, whits_b, wfaults_b, fq
        if dbg is not None:
            dbg["scalar_events"] = dbg.get("scalar_events", 0) + count
        flush_pending()
        g = i0
        for page in pages_arr[i0:i0 + count].tolist():
            w = g % total_warps
            s = g % num_sms
            g += 1
            start = sm_issue[s]
            ready_w = warp_ready[w]
            if ready_w > start:
                start = ready_w
            sm_issue[s] = start + 1

            entries = l1_sets[s][page & l1_mask]
            if page in entries:
                entries.move_to_end(page)
                l1_hits_b[s] += 1
                warp_ready[w] = start + l1_hit_total
                continue
            l1_misses_b[s] += 1

            l2_entries = l2_sets[page & l2_mask]
            if page in l2_entries:
                l2_entries.move_to_end(page)
                l2_hits_b += 1
                if len(entries) >= l1_assoc:
                    old, _ = entries.popitem(last=False)
                    l1_ev_b[s] += 1
                    presence[old] &= sm_nbits[s]
                entries[page] = 0
                presence[page] |= sm_bits[s]
                warp_ready[w] = start + l2_hit_total
                continue
            l2_misses_b += 1

            walks_b += 1
            pte = pt_entries.get(page)
            if pte is not None and pte.valid:
                whits_b += 1
                pte.walk_hits += 1
                for listener in listeners:
                    listener(page)
                frame = pte.frame
                if len(entries) >= l1_assoc:
                    old, _ = entries.popitem(last=False)
                    l1_ev_b[s] += 1
                    presence[old] &= sm_nbits[s]
                entries[page] = frame
                if len(l2_entries) >= l2_assoc:
                    old, _ = l2_entries.popitem(last=False)
                    l2_ev_b += 1
                    presence[old] &= not_l2
                l2_entries[page] = frame
                presence[page] |= sm_bits[s] | l2bit
                warp_ready[w] = start + walk_hit_total
                continue

            wfaults_b += 1
            frame, _victim, _rm, moved = lean_fault(page)
            service = transfer_memo.get(moved)
            if service is None:
                service = fault_cycles + transfer_cycles(moved)
                transfer_memo[moved] = service
            if len(entries) >= l1_assoc:
                old, _ = entries.popitem(last=False)
                l1_ev_b[s] += 1
                presence[old] &= sm_nbits[s]
            entries[page] = frame
            if len(l2_entries) >= l2_assoc:
                old, _ = l2_entries.popitem(last=False)
                l2_ev_b += 1
                presence[old] &= not_l2
            l2_entries[page] = frame
            # A faulting page was non-resident, hence in no TLB.
            presence[page] = sm_bits[s] | l2bit
            if consume_bytes is not None:
                extra = consume_bytes()
                if extra:
                    service += transfer_cycles(extra)
            begin = start + fault_begin_latency
            if fq > begin:
                begin = fq
            fq = begin + service
            warp_ready[w] = fq

    def find_segment(i0: int) -> int:
        """Length of the longest distinct-page prefix at ``i0`` (capped)."""
        end = i0 + SEGMENT_CAP
        if end > n:
            end = n
        rep = np.flatnonzero(prev_arr[i0 + 1:end] >= i0)
        if rep.size:
            return int(rep[0]) + 1
        return end - i0

    def process_segment(g0: int, seg_len: int, depth: int = 0) -> None:
        """Replay one distinct-page segment with batch classification.

        Classification is v2's exact scheme — residency + own-presence
        candidates, pressure-refinement proofs, flagged events live-
        probed, evictions flipped into the fault class — computed here
        with vector gathers over the flat presence/residency arrays.
        ``depth`` bounds degrade-and-reclassify recursion exactly as in
        v2.
        """
        if dbg is not None:
            dbg["segments"] = dbg.get("segments", 0) + 1
        nonlocal l2_hits_b, l2_misses_b, l2_ev_b
        nonlocal walks_b, whits_b, wfaults_b, fq
        seg = pages_arr[g0:g0 + seg_len]
        seg_list = seg.tolist()
        flush_pending()

        # --- vectorized residency + candidate classification ----------
        # Only *own* presence — the issuing SM's L1 or the L2 — makes a
        # position a candidate: a page parked solely in another SM's
        # private L1 still misses both probed levels, so its event is a
        # guaranteed hit-class insert.
        pm = np.fromiter((presence[p] for p in seg_list),
                         dtype=np.int64, count=seg_len)
        res_np = np.fromiter((p in fop for p in seg_list),
                             dtype=bool, count=seg_len)
        sm_idx = (g0 + np.arange(seg_len, dtype=np.int64)) % num_sms
        own_np = (pm >> sm_idx) & 1 == 1
        l2p_np = (pm & l2bit) != 0
        cand_np: Any = own_np | l2p_np

        # --- pressure refinement: a candidate whose L1 set *and* L2 set
        # each receive >= associativity guaranteed inserts (non-candidate
        # events) before its position is provably evicted by then — as
        # long as no shootdown removes entries from those sets first
        # (tracked via fr1_max/fr2_max).
        fr1_max.clear()
        fr2_max.clear()
        flag_np = cand_np.copy()
        if bool(cand_np.any()):
            noncand = ~cand_np
            press1: Any = None
            key1: Any = None
            if num_sms * l1_nsets <= MAX_REFINE_KEYS:
                if l1_nsets == 1:
                    key1 = sm_idx
                else:
                    key1 = sm_idx * l1_nsets + (seg & l1_mask)
                press1 = np.zeros(seg_len, dtype=bool)
                # Order-free: each key selects a disjoint mask and the
                # per-key writes never overlap.
                for k in np.unique(key1[cand_np]).tolist():
                    mk = key1 == k
                    counts = np.cumsum(noncand & mk)
                    press1[mk] = counts[mk] >= l1_assoc
            press2: Any = None
            if l2_nsets <= MAX_REFINE_KEYS:
                key2 = seg & l2_mask
                press2 = np.zeros(seg_len, dtype=bool)
                # Order-free: disjoint masks, as above.
                for k in np.unique(key2[cand_np]).tolist():
                    mk = key2 == k
                    counts = np.cumsum(noncand & mk)
                    press2[mk] = counts[mk] >= l2_assoc
            # A candidate unflags only when every level it occupies is
            # provably flushed by pressure before its event (residency
            # plays no part: an unflagged non-resident candidate is a
            # guaranteed fault, exactly as in v2).
            ok_np = cand_np.copy()
            if press1 is not None:
                ok_np &= ~own_np | press1
            else:
                ok_np &= ~own_np
            if press2 is not None:
                ok_np &= ~l2p_np | press2
            else:
                ok_np &= ~l2p_np
            flag_np = cand_np & ~ok_np
            # Registries of the rightmost pressure-unflagged position
            # per set — consulted by shoot_degrades.
            for i in np.flatnonzero(ok_np).tolist():
                if bool(own_np[i]):
                    k = int(key1[i]) if key1 is not None else 0
                    if fr1_max.get(k, -1) < i:
                        fr1_max[k] = i
                if bool(l2p_np[i]):
                    k = seg_list[i] & l2_mask
                    if fr2_max.get(k, -1) < i:
                        fr2_max[k] = i

        fault_ba = bytearray(np.asarray(~res_np).tobytes())
        flag_ba = bytearray(np.asarray(flag_np).tobytes())
        specials = np.flatnonzero(~res_np | flag_np).tolist()
        nsp = len(specials)
        sp = 0
        flips: list[int] = []
        flip_set: set[int] = set()
        pos_map: dict[int, int] = {p: i for i, p in enumerate(seg_list)}
        pos_get = pos_map.get
        degrade_flag = False

        def note_eviction(victim: int, t: int) -> None:
            """Flip the victim's future position into the fault class."""
            vt = pos_get(victim)
            if vt is not None and vt > t and vt not in flip_set:
                flip_set.add(vt)
                fault_ba[vt] = 1
                if flag_ba[vt]:
                    # Evicted + shot down before its event → guaranteed
                    # fault; drop the flag so the fault path handles it.
                    flag_ba[vt] = 0
                heapq.heappush(flips, vt)

        def shoot_invalidates(rm_mask: int, victim: int, t: int) -> bool:
            """Did this shootdown invalidate a later pressure-unflag?

            A pressure proof counts this segment's guaranteed
            (non-candidate) inserts, so it only breaks when one of THOSE
            entries is removed: the victim must have had its own event
            before ``t`` (the sole way a page enters a TLB mid-segment),
            and that event must have been a counted one.  A victim whose
            entry predates the segment, or whose event was a candidate,
            leaves every counted insert in place.
            """
            if not rm_mask or (not fr1_max and not fr2_max):
                return False
            vt = pos_get(victim)
            if vt is None or vt >= t:
                return False
            if bool(cand_np[vt]):
                return False
            return shoot_degrades(rm_mask, victim, t)

        def flagged_event(t: int) -> bool:
            """One flagged event via the live-probe body; True → degrade."""
            nonlocal l2_hits_b, l2_misses_b, l2_ev_b
            nonlocal walks_b, whits_b, wfaults_b, fq
            if dbg is not None:
                dbg["flagged_events"] = dbg.get("flagged_events", 0) + 1
            flush_pending()
            g = g0 + t
            page = seg_list[t]
            w = g % total_warps
            s = g % num_sms
            start = sm_issue[s]
            ready_w = warp_ready[w]
            if ready_w > start:
                start = ready_w
            sm_issue[s] = start + 1

            entries = l1_sets[s][page & l1_mask]
            if page in entries:
                entries.move_to_end(page)
                l1_hits_b[s] += 1
                warp_ready[w] = start + l1_hit_total
                return False
            l1_misses_b[s] += 1
            l2_entries = l2_sets[page & l2_mask]
            if page in l2_entries:
                l2_entries.move_to_end(page)
                l2_hits_b += 1
                if len(entries) >= l1_assoc:
                    old, _ = entries.popitem(last=False)
                    l1_ev_b[s] += 1
                    presence[old] &= sm_nbits[s]
                entries[page] = 0
                presence[page] |= sm_bits[s]
                warp_ready[w] = start + l2_hit_total
                return False
            l2_misses_b += 1
            walks_b += 1
            pte = pt_entries.get(page)
            if pte is not None and pte.valid:
                whits_b += 1
                pte.walk_hits += 1
                for listener in listeners:
                    listener(page)
                frame = pte.frame
                if len(entries) >= l1_assoc:
                    old, _ = entries.popitem(last=False)
                    l1_ev_b[s] += 1
                    presence[old] &= sm_nbits[s]
                entries[page] = frame
                if len(l2_entries) >= l2_assoc:
                    old, _ = l2_entries.popitem(last=False)
                    l2_ev_b += 1
                    presence[old] &= not_l2
                l2_entries[page] = frame
                presence[page] |= sm_bits[s] | l2bit
                warp_ready[w] = start + walk_hit_total
                return False
            wfaults_b += 1
            frame, victim, rm_mask, moved = lean_fault(page)
            service = transfer_memo.get(moved)
            if service is None:
                service = fault_cycles + transfer_cycles(moved)
                transfer_memo[moved] = service
            if len(entries) >= l1_assoc:
                old, _ = entries.popitem(last=False)
                l1_ev_b[s] += 1
                presence[old] &= sm_nbits[s]
            entries[page] = frame
            if len(l2_entries) >= l2_assoc:
                old, _ = l2_entries.popitem(last=False)
                l2_ev_b += 1
                presence[old] &= not_l2
            l2_entries[page] = frame
            presence[page] = sm_bits[s] | l2bit
            if consume_bytes is not None:
                extra = consume_bytes()
                if extra:
                    service += transfer_cycles(extra)
            begin = start + fault_begin_latency
            if fq > begin:
                begin = fq
            fq = begin + service
            warp_ready[w] = fq
            if victim is not None:
                note_eviction(victim, t)
                return shoot_invalidates(rm_mask, victim, t)
            return False

        t = 0
        while t < seg_len:
            while sp < nsp and specials[sp] < t:
                sp += 1
            while flips and flips[0] < t:
                heapq.heappop(flips)
            nxt = specials[sp] if sp < nsp else seg_len
            if flips and flips[0] < nxt:
                nxt = flips[0]
            if t < nxt:
                run_hits(g0 + t, seg_list[t:nxt])
                t = nxt
                continue
            if flips and flips[0] == t:
                heapq.heappop(flips)
            if sp < nsp and specials[sp] == t:
                sp += 1
            if flag_ba[t]:
                if flagged_event(t):
                    # A shootdown invalidated a later pressure-unflag:
                    # reclassify the remainder (still distinct pages)
                    # against the post-shootdown state.
                    t += 1
                    rem = seg_len - t
                    if rem >= MIN_SEGMENT and depth < 32:
                        process_segment(g0 + t, rem, depth + 1)
                    elif rem > 0:
                        scalar_generic(g0 + t, rem)
                    return
                t += 1
                continue
            # Fault position: extend over every consecutive fault-class
            # event (original non-residents plus flipped victims) and
            # service the whole run batched.
            run_start = t
            e = t + 1
            while e < seg_len and fault_ba[e] and not flag_ba[e]:
                e += 1

            def on_evict(victim: int, rm_mask: int) -> None:
                nonlocal degrade_flag
                vt = pos_get(victim)
                if vt is not None:
                    if vt > run_start and vt not in flip_set:
                        flip_set.add(vt)
                        fault_ba[vt] = 1
                        if flag_ba[vt]:
                            flag_ba[vt] = 0
                        heapq.heappush(flips, vt)
                    elif (
                        rm_mask
                        and vt < run_start
                        and (fr1_max or fr2_max)
                        and not cand_np[vt]
                        and shoot_degrades(rm_mask, victim, run_start)
                    ):
                        degrade_flag = True

            fault_run(g0 + run_start, seg_list[run_start:e], on_evict)
            t = e
            if degrade_flag:
                rem = seg_len - t
                if rem >= MIN_SEGMENT and depth < 32:
                    process_segment(g0 + t, rem, depth + 1)
                elif rem > 0:
                    scalar_generic(g0 + t, rem)
                return

    # --- main loop -----------------------------------------------------
    i = 0
    while i < n:
        remaining = n - i
        if remaining < MIN_SEGMENT:
            scalar_generic(i, remaining)
            break
        seg_len = find_segment(i)
        if seg_len < MIN_SEGMENT:
            chunk = SCALAR_CHUNK if SCALAR_CHUNK < remaining else remaining
            scalar_generic(i, chunk)
            i += chunk
        else:
            process_segment(i, seg_len)
            i += seg_len

    # --- fold batched counters back into the shared structures ---------
    flush_pending()
    for s, tlb in enumerate(hierarchy.l1_tlbs):
        tlb.add_batched_stats(l1_hits_b[s], l1_misses_b[s], l1_ev_b[s])
    hierarchy.l2_tlb.add_batched_stats(l2_hits_b, l2_misses_b, l2_ev_b)
    walker.add_batched_counts(walks_b, whits_b, wfaults_b)
    stats.faults = fault_no
    stats.compulsory_faults += d_comp
    stats.capacity_faults += d_cap
    stats.evictions += d_evict
    stats.bytes_migrated_in += d_bin
    stats.bytes_evicted_out += d_bout
    # The inlined fault paths mutate the frame dicts directly, so the
    # pool's flat residency view is resynchronized once per replay.
    frame_pool.residency = Bitmap()
    frame_pool.residency.update(list(fop))
    return max(max(warp_ready, default=0), max(sm_issue, default=0))
