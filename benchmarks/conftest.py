"""Shared benchmark plumbing.

Every benchmark regenerates one of the paper's tables or figures on the
full 23-application suite and prints the reproduced rows, so
``pytest benchmarks/ --benchmark-only`` doubles as the reproduction run.

Set ``REPRO_BENCH_SCALE`` (e.g. ``0.5``) or ``REPRO_BENCH_APPS``
(comma-separated abbreviations) to shrink the runs during development.

Benchmarks measure simulation cost, so the persistent result cache is
bypassed for the benchmarked process (a cached rerun would measure a
disk read).
"""

from __future__ import annotations

import os
from typing import Optional

import pytest


def bench_scale() -> float:
    """Footprint scale for benchmark runs (env-overridable)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def bench_apps() -> Optional[list[str]]:
    """Application subset for benchmark runs (env-overridable)."""
    raw = os.environ.get("REPRO_BENCH_APPS")
    if not raw:
        return None
    return [item.strip().upper() for item in raw.split(",") if item.strip()]


@pytest.fixture(autouse=True, scope="session")
def _bypass_result_cache():
    """Benchmarks time simulations, not cache reads."""
    from repro.sim import cache

    cache.configure(enabled=False)
    yield
    cache.configure(enabled=True)


def run_once(benchmark, harness, **kwargs):
    """Run ``harness`` exactly once under pytest-benchmark and print it."""
    result = benchmark.pedantic(
        lambda: harness(**kwargs), rounds=1, iterations=1
    )
    print()
    print(result.render())
    return result


@pytest.fixture
def harness_kwargs():
    """Common kwargs (scale / app subset) for every figure harness."""
    kwargs = {"scale": bench_scale()}
    apps = bench_apps()
    if apps is not None:
        kwargs["apps"] = apps
    return kwargs
