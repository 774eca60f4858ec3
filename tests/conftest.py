"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.memory.addressing import PageSetGeometry
from repro.sim.config import GPUConfig
from repro.tlb.tlb import TLBConfig


@pytest.fixture(autouse=True, scope="session")
def _isolated_cache(tmp_path_factory):
    """Point the persistent result/trace cache at a throwaway directory.

    Keeps the test suite hermetic: no run ever reads or writes the
    developer's real ``~/.cache/hpe-repro``.
    """
    from repro.sim import cache

    cache.configure(directory=tmp_path_factory.mktemp("repro-cache"))
    yield


@pytest.fixture(autouse=True)
def _close_borrowed_cell_pool():
    """Close the cell pool ``run_scenario`` lends to ``jobs >= 2``
    matrices after each test.

    Its workers keep the state they were forked with, monkeypatches
    included, so no test may run on a pool an earlier test started.
    """
    yield
    from repro.experiments.runner import close_cell_pool

    close_cell_pool()


@pytest.fixture
def geometry() -> PageSetGeometry:
    """Paper-default page-set geometry (16 pages per set)."""
    return PageSetGeometry(16)


@pytest.fixture
def small_config() -> GPUConfig:
    """A small GPU configuration that keeps unit tests fast."""
    return GPUConfig(
        num_sms=2,
        warps_per_sm=4,
        l1_tlb=TLBConfig(entries=8, associativity=8, latency_cycles=1),
        l2_tlb=TLBConfig(entries=32, associativity=4, latency_cycles=10),
    )


@pytest.fixture
def rng() -> random.Random:
    """Deterministic RNG for tests that need randomness."""
    return random.Random(0xC0FFEE)


def cyclic_trace(num_pages: int, iterations: int) -> list[int]:
    """A thrashing loop trace: pages 0..n-1 repeated."""
    return list(range(num_pages)) * iterations


def random_trace(num_pages: int, length: int, seed: int = 1) -> list[int]:
    """Uniformly random page references."""
    rng = random.Random(seed)
    return [rng.randrange(num_pages) for _ in range(length)]
