"""Tests for the persistent result cache (repro.sim.cache)."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.hpe import HPEConfig
from repro.experiments.runner import TraceCache, run_spec
from repro.scenarios.spec import ScenarioSpec
from repro.sim import cache
from repro.sim.config import GPUConfig
from repro.tlb.tlb import TLBConfig


@pytest.fixture
def fresh_cache(tmp_path):
    """Point the cache at a private empty directory for one test."""
    previous = cache.cache_dir()
    cache.configure(enabled=True, directory=tmp_path)
    yield tmp_path
    cache.configure(enabled=True, directory=previous)


#: The cell whose cache key the fingerprint tests vary, one field at a time.
KMN_HPE = ScenarioSpec("KMN", "hpe", 0.75, seed=7, scale=1.0)

#: STN under LRU at 75%, scale 0.25 (the cell the cache tests store).
STN_LRU = ScenarioSpec("STN", "lru", 0.75, scale=0.25)


def key(**changes) -> str:
    """The result-cache key of :data:`KMN_HPE` with ``changes`` applied."""
    return dataclasses.replace(KMN_HPE, **changes).digest()


class TestFingerprint:
    def test_deterministic(self):
        assert KMN_HPE.digest() == ScenarioSpec(
            "KMN", "hpe", 0.75, seed=7, scale=1.0
        ).digest()

    def test_case_insensitive_app_and_policy(self):
        assert key(workload="kmn", policy="HPE") == KMN_HPE.digest()

    @pytest.mark.parametrize("variant", [
        dict(seed=8),
        dict(scale=0.5),
    ])
    def test_seed_and_scale_invalidate(self, variant):
        assert key(**variant) != KMN_HPE.digest()

    def test_app_policy_rate_invalidate(self):
        base = KMN_HPE.digest()
        assert key(workload="BFS") != base
        assert key(policy="lru") != base
        assert key(rate=0.50) != base

    def test_gpu_config_invalidates(self):
        tweaked = GPUConfig(
            l1_tlb=TLBConfig(entries=8, associativity=8, latency_cycles=1)
        )
        assert key(config=tweaked) != KMN_HPE.digest()

    def test_default_config_matches_none(self):
        assert key(config=GPUConfig()) == KMN_HPE.digest()

    def test_hpe_config_invalidates_hpe_runs(self):
        tweaked = dataclasses.replace(HPEConfig(), page_set_size=8)
        assert key(hpe_config=tweaked) != KMN_HPE.digest()

    def test_default_hpe_config_matches_none(self):
        assert key(hpe_config=HPEConfig()) == KMN_HPE.digest()

    def test_hpe_config_ignored_for_other_policies(self):
        tweaked = dataclasses.replace(HPEConfig(), page_set_size=8)
        assert key(policy="lru", hpe_config=tweaked) == key(policy="lru")

    def test_prefetch_degree_invalidates(self):
        assert key(policy="lru", prefetch_degree=4) != key(policy="lru")


class TestResultCache:
    def test_roundtrip(self, fresh_cache):
        result = run_spec(STN_LRU, use_cache=False)
        store = cache.ResultCache()
        store.put("ab" * 32, result)
        loaded = store.get("ab" * 32)
        assert loaded is not None
        assert loaded.key_metrics() == result.key_metrics()

    def test_get_returns_fresh_copy(self, fresh_cache):
        result = run_spec(STN_LRU, use_cache=False)
        store = cache.ResultCache()
        store.put("cd" * 32, result)
        first = store.get("cd" * 32)
        second = store.get("cd" * 32)
        assert first is not second

    def test_miss_returns_none(self, fresh_cache):
        assert cache.ResultCache().get("00" * 32) is None

    def test_corrupt_entry_is_dropped(self, fresh_cache):
        store = cache.ResultCache()
        path = store._path("ef" * 32)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle")
        assert store.get("ef" * 32) is None
        assert not path.exists()

    def test_corrupt_entry_counts_as_miss(self, fresh_cache):
        store = cache.ResultCache()
        path = store._path("ef" * 32)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle")
        store.get("ef" * 32)
        assert store.stats.result_misses == 1
        assert store.stats.result_hits == 0

    def test_truncated_pickle_is_dropped(self, fresh_cache):
        result = run_spec(STN_LRU, use_cache=False)
        store = cache.ResultCache()
        store.put("ab" * 32, result)
        path = store._path("ab" * 32)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        assert store.get("ab" * 32) is None
        assert not path.exists()
        assert store.stats.result_misses == 1

    def test_run_spec_recomputes_after_corruption(self, fresh_cache):
        first = run_spec(STN_LRU)
        digest = STN_LRU.digest()
        store = cache.result_cache()
        path = store._path(digest)
        assert path.is_file()
        path.write_bytes(b"garbage")
        misses_before = store.stats.result_misses
        again = run_spec(STN_LRU)
        assert store.stats.result_misses == misses_before + 1
        assert again.key_metrics() == first.key_metrics()
        # The recomputed result was stored back and is readable again.
        assert store.get(digest) is not None

    def test_clear_removes_entries(self, fresh_cache):
        result = run_spec(STN_LRU, use_cache=False)
        store = cache.ResultCache()
        store.put("12" * 32, result)
        assert store.entry_count() == 1
        assert store.clear() == 1
        assert store.entry_count() == 0
        assert store.get("12" * 32) is None


class TestRunApplicationCaching:
    def test_second_run_hits(self, fresh_cache):
        run_spec(STN_LRU)
        stats = cache.result_cache().stats
        assert stats.result_stores == 1
        run_spec(STN_LRU)
        assert cache.result_cache().stats.result_hits >= 1

    def test_cached_results_shared_across_processes(self, fresh_cache):
        """A fresh ResultCache (≈ a new process) sees entries on disk."""
        first = run_spec(STN_LRU)
        digest = STN_LRU.digest()
        fresh = cache.ResultCache()
        loaded = fresh.get(digest)
        assert loaded is not None
        assert loaded.key_metrics() == first.key_metrics()

    def test_use_cache_false_bypasses(self, fresh_cache):
        run_spec(STN_LRU)
        stores_before = cache.result_cache().stats.result_stores
        hits_before = cache.result_cache().stats.result_hits
        run_spec(STN_LRU, use_cache=False)
        stats = cache.result_cache().stats
        assert stats.result_stores == stores_before
        assert stats.result_hits == hits_before

    def test_disabled_via_configure(self, fresh_cache):
        cache.configure(enabled=False)
        run_spec(STN_LRU)
        assert cache.result_cache().entry_count() == 0

    def test_cached_policy_extras_survive(self, fresh_cache):
        stn_hpe = ScenarioSpec("STN", "hpe", 0.75, scale=0.25)
        run_spec(stn_hpe)
        cached = run_spec(stn_hpe)
        policy = cached.extras["policy"]
        # The figure harnesses introspect the live policy object.
        assert policy.name == "hpe"
        assert policy.chain is not None


class TestEnvControls:
    def test_env_disables(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.ENV_CACHE_ENABLED, "0")
        cache.configure(directory=tmp_path)
        try:
            # Clear the process-level override so the env var decides.
            cache._enabled_override = None
            assert not cache.cache_enabled()
        finally:
            cache.configure(enabled=True)

    def test_env_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cache.ENV_CACHE_DIR, str(tmp_path / "elsewhere"))
        saved = cache._dir_override
        cache._dir_override = None
        try:
            assert cache.cache_dir() == tmp_path / "elsewhere"
        finally:
            cache._dir_override = saved


class TestTracesAreNotCached:
    def test_trace_cache_miss_writes_nothing(self, fresh_cache):
        # Building a trace costs less than reading a stored copy back.
        trace = TraceCache().get("STN", seed=7, scale=0.25)
        assert len(trace.pages) > 0
        assert not (fresh_cache / "traces").exists()
        assert list(fresh_cache.rglob("*")) == []
