"""Tests for the persistent result cache (repro.sim.cache)."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.hpe import HPEConfig
from repro.experiments.runner import TraceCache, run_application
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


BASE = dict(seed=7, scale=1.0)


class TestFingerprint:
    def test_deterministic(self):
        assert cache.fingerprint("KMN", "hpe", 0.75, **BASE) == \
            cache.fingerprint("KMN", "hpe", 0.75, **BASE)

    def test_case_insensitive_app_and_policy(self):
        assert cache.fingerprint("kmn", "HPE", 0.75, **BASE) == \
            cache.fingerprint("KMN", "hpe", 0.75, **BASE)

    @pytest.mark.parametrize("variant", [
        dict(seed=8),
        dict(scale=0.5),
    ])
    def test_seed_and_scale_invalidate(self, variant):
        base = cache.fingerprint("KMN", "hpe", 0.75, **BASE)
        assert cache.fingerprint("KMN", "hpe", 0.75, **{**BASE, **variant}) \
            != base

    def test_app_policy_rate_invalidate(self):
        base = cache.fingerprint("KMN", "hpe", 0.75, **BASE)
        assert cache.fingerprint("BFS", "hpe", 0.75, **BASE) != base
        assert cache.fingerprint("KMN", "lru", 0.75, **BASE) != base
        assert cache.fingerprint("KMN", "hpe", 0.50, **BASE) != base

    def test_gpu_config_invalidates(self):
        base = cache.fingerprint("KMN", "hpe", 0.75, **BASE)
        tweaked = GPUConfig(
            l1_tlb=TLBConfig(entries=8, associativity=8, latency_cycles=1)
        )
        assert cache.fingerprint(
            "KMN", "hpe", 0.75, config=tweaked, **BASE
        ) != base

    def test_default_config_matches_none(self):
        assert cache.fingerprint(
            "KMN", "hpe", 0.75, config=GPUConfig(), **BASE
        ) == cache.fingerprint("KMN", "hpe", 0.75, **BASE)

    def test_hpe_config_invalidates_hpe_runs(self):
        base = cache.fingerprint("KMN", "hpe", 0.75, **BASE)
        tweaked = dataclasses.replace(HPEConfig(), page_set_size=8)
        assert cache.fingerprint(
            "KMN", "hpe", 0.75, hpe_config=tweaked, **BASE
        ) != base

    def test_default_hpe_config_matches_none(self):
        assert cache.fingerprint(
            "KMN", "hpe", 0.75, hpe_config=HPEConfig(), **BASE
        ) == cache.fingerprint("KMN", "hpe", 0.75, **BASE)

    def test_hpe_config_ignored_for_other_policies(self):
        tweaked = dataclasses.replace(HPEConfig(), page_set_size=8)
        assert cache.fingerprint(
            "KMN", "lru", 0.75, hpe_config=tweaked, **BASE
        ) == cache.fingerprint("KMN", "lru", 0.75, **BASE)

    def test_prefetch_degree_invalidates(self):
        assert cache.fingerprint(
            "KMN", "lru", 0.75, prefetch_degree=4, **BASE
        ) != cache.fingerprint("KMN", "lru", 0.75, **BASE)


class TestResultCache:
    def test_roundtrip(self, fresh_cache):
        result = run_application("STN", "lru", 0.75, scale=0.25,
                                 use_cache=False)
        store = cache.ResultCache()
        store.put("ab" * 32, result)
        loaded = store.get("ab" * 32)
        assert loaded is not None
        assert loaded.key_metrics() == result.key_metrics()

    def test_get_returns_fresh_copy(self, fresh_cache):
        result = run_application("STN", "lru", 0.75, scale=0.25,
                                 use_cache=False)
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
        result = run_application("STN", "lru", 0.75, scale=0.25,
                                 use_cache=False)
        store = cache.ResultCache()
        store.put("ab" * 32, result)
        path = store._path("ab" * 32)
        payload = path.read_bytes()
        path.write_bytes(payload[: len(payload) // 2])
        store._memory.clear()  # force the disk read
        assert store.get("ab" * 32) is None
        assert not path.exists()
        assert store.stats.result_misses == 1

    def test_corrupt_memory_entry_is_dropped_too(self, fresh_cache):
        store = cache.ResultCache()
        store._memory["cd" * 32] = b"bogus bytes"
        assert store.get("cd" * 32) is None
        assert ("cd" * 32) not in store._memory

    def test_run_application_recomputes_after_corruption(self, fresh_cache):
        first = run_application("STN", "lru", 0.75, scale=0.25)
        digest = cache.fingerprint("STN", "lru", 0.75, seed=7, scale=0.25)
        store = cache.result_cache()
        path = store._path(digest)
        assert path.is_file()
        path.write_bytes(b"garbage")
        store._memory.clear()
        misses_before = store.stats.result_misses
        again = run_application("STN", "lru", 0.75, scale=0.25)
        assert store.stats.result_misses == misses_before + 1
        assert again.key_metrics() == first.key_metrics()
        # The recomputed result was stored back and is readable again.
        assert store.get(digest) is not None

    def test_clear_removes_entries(self, fresh_cache):
        result = run_application("STN", "lru", 0.75, scale=0.25,
                                 use_cache=False)
        store = cache.ResultCache()
        store.put("12" * 32, result)
        assert store.entry_count() == 1
        assert store.clear() == 1
        assert store.entry_count() == 0
        assert store.get("12" * 32) is None


class TestRunApplicationCaching:
    def test_second_run_hits(self, fresh_cache):
        run_application("STN", "lru", 0.75, scale=0.25)
        stats = cache.result_cache().stats
        assert stats.result_stores == 1
        run_application("STN", "lru", 0.75, scale=0.25)
        assert cache.result_cache().stats.result_hits >= 1

    def test_cached_results_shared_across_processes(self, fresh_cache):
        """A fresh ResultCache (≈ a new process) sees entries on disk."""
        first = run_application("STN", "lru", 0.75, scale=0.25)
        digest = cache.fingerprint("STN", "lru", 0.75, seed=7, scale=0.25)
        fresh = cache.ResultCache()  # no shared in-memory layer
        loaded = fresh.get(digest)
        assert loaded is not None
        assert loaded.key_metrics() == first.key_metrics()

    def test_use_cache_false_bypasses(self, fresh_cache):
        run_application("STN", "lru", 0.75, scale=0.25)
        stores_before = cache.result_cache().stats.result_stores
        hits_before = cache.result_cache().stats.result_hits
        run_application("STN", "lru", 0.75, scale=0.25, use_cache=False)
        stats = cache.result_cache().stats
        assert stats.result_stores == stores_before
        assert stats.result_hits == hits_before

    def test_disabled_via_configure(self, fresh_cache):
        cache.configure(enabled=False)
        run_application("STN", "lru", 0.75, scale=0.25)
        assert cache.result_cache().entry_count() == 0

    def test_cached_policy_extras_survive(self, fresh_cache):
        run_application("STN", "hpe", 0.75, scale=0.25)
        cached = run_application("STN", "hpe", 0.75, scale=0.25)
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
