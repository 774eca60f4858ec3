"""Unit coverage for the relaxed batch kernel (fastpath tier 3).

The metric-level guarantees live in ``tests/diff/test_tolerance.py``;
this file pins the kernel's *mechanics*: the eligibility gate and its
fallback recording, the env-var ceiling (ambient config must never
select a relaxed tier), the internal path counters, and the fault-run
chunking policy (capacity-sized bursts for exact-victim LRU, bounded
:data:`~repro.sim.fastpath3.FAULT_CHUNK` bursts for adaptive policies).
"""

from __future__ import annotations

import pytest

from repro.check.difftraces import build
from repro.experiments.runner import make_policy
from repro.obs import Observation
from repro.sim import fastpath3
from repro.sim.config import GPUConfig, resolve_fastpath_level
from repro.sim.engine import UVMSimulator

TRACE = build("strided", 11, 1024)
CAPACITY = max(8, int(TRACE.footprint_pages * 0.75))


def _sim(policy_name: str = "lru", **kwargs) -> UVMSimulator:
    policy = make_policy(policy_name, CAPACITY, seed=7)
    return UVMSimulator(policy, CAPACITY, **kwargs)


class TestEligibility:
    def test_plain_run_is_eligible(self) -> None:
        assert fastpath3.eligible(_sim(), TRACE.pages)

    def test_observed_run_is_ineligible(self) -> None:
        sim = _sim(obs=Observation())
        assert not fastpath3.eligible(sim, TRACE.pages)

    def test_sanitized_run_is_ineligible(self) -> None:
        sim = _sim(sanitize=True)
        assert not fastpath3.eligible(sim, TRACE.pages)

    def test_offline_policy_is_ineligible(self) -> None:
        assert not fastpath3.eligible(_sim("ideal"), TRACE.pages)

    def test_prefetching_run_is_ineligible(self) -> None:
        sim = _sim(prefetch_degree=2)
        assert not fastpath3.eligible(sim, TRACE.pages)

    def test_huge_page_numbers_are_ineligible(self) -> None:
        sim = _sim()
        assert not fastpath3.eligible(sim, [1, fastpath3.MAX_PAGE])

    def test_negative_page_numbers_are_ineligible(self) -> None:
        assert not fastpath3.eligible(_sim(), [3, -1, 5])

    def test_too_many_sms_are_ineligible(self) -> None:
        config = GPUConfig(num_sms=fastpath3.MAX_SMS + 2)
        sim = _sim(config=config)
        assert not fastpath3.eligible(sim, TRACE.pages)


class TestFallbackRecording:
    def test_ineligible_tier3_falls_back_and_records_it(self) -> None:
        sim = _sim("ideal")
        result = sim.run(list(TRACE.pages), fast=3)
        record = result.extras["fastpath"]
        assert record["requested"] == 3
        assert record["executed"] == 1

    def test_eligible_tier3_records_execution(self) -> None:
        sim = _sim()
        result = sim.run(list(TRACE.pages), fast=3)
        assert result.extras["fastpath"] == {"requested": 3, "executed": 3}

    def test_env_var_cannot_select_the_relaxed_tier(self, monkeypatch) -> None:
        """REPRO_SIM_FASTPATH=3 clamps to tier 1: ambient config must
        never silently relax results that identities treat as exact."""
        monkeypatch.setenv("REPRO_SIM_FASTPATH", "3")
        assert resolve_fastpath_level(None) == 1
        sim = _sim()
        result = sim.run(list(TRACE.pages))
        assert result.extras["fastpath"] == {"requested": 1, "executed": 1}

    def test_explicit_level_clamps_into_range(self) -> None:
        assert resolve_fastpath_level(7) == 3
        assert resolve_fastpath_level(-2) == 0
        assert resolve_fastpath_level(3) == 3
        # 2 numbered the retired batch kernel: an alias of tier 1.
        assert resolve_fastpath_level(2) == 1


class TestDebugCounters:
    @pytest.fixture(autouse=True)
    def _counters(self, monkeypatch):
        counts: dict[str, int] = {}
        monkeypatch.setattr(fastpath3, "DEBUG_COUNTS", counts)
        self.counts = counts

    def test_replay_exercises_the_batched_paths(self) -> None:
        sim = _sim("hpe")
        sim.run(list(TRACE.pages), fast=3)
        assert self.counts.get("segments", 0) > 0
        assert self.counts.get("hit_run_events", 0) > 0
        assert self.counts.get("fault_run_events", 0) > 0
        assert self.counts.get("fault_chunks", 0) > 0
        # every event is accounted to exactly one path
        total = (
            self.counts.get("hit_run_events", 0)
            + self.counts.get("fault_run_events", 0)
            + self.counts.get("flagged_events", 0)
            + self.counts.get("scalar_events", 0)
        )
        assert total == len(TRACE.pages)

    def test_adaptive_policies_use_bounded_fault_chunks(self) -> None:
        """HPE fault runs split at FAULT_CHUNK; LRU uses capacity bursts.

        Bounded chunks exist because adaptive policies re-rank victims
        as pages arrive — chunking past the page-set granularity was
        measured to push fault drift off a cliff (DESIGN §13).  Stock
        LRU victim order is provably chunk-invariant, so it runs the
        larger capacity-sized bursts for speed.
        """
        sim = _sim("hpe")
        sim.run(list(TRACE.pages), fast=3)
        assert self.counts.get("fault_chunks", 0) > 0
        assert 0 < self.counts["max_fault_chunk"] <= fastpath3.FAULT_CHUNK
        self.counts.clear()
        sim = _sim("lru")
        sim.run(list(TRACE.pages), fast=3)
        assert self.counts.get("fault_chunks", 0) > 0
        assert self.counts["max_fault_chunk"] > fastpath3.FAULT_CHUNK


class TestFinalState:
    def test_residency_bitmap_matches_frame_map_after_replay(self) -> None:
        sim = _sim("clock-pro")
        sim.run(list(TRACE.pages), fast=3)
        resident = set(sim.frame_pool.residency)
        assert resident == set(sim.frame_pool._frame_of_page)
        assert len(resident) <= CAPACITY

    def test_policy_resident_count_is_consistent(self) -> None:
        sim = _sim("lru")
        sim.run(list(TRACE.pages), fast=3)
        tracked = sim.policy.resident_count()
        if tracked is not None:
            assert tracked == len(sim.frame_pool._frame_of_page)
