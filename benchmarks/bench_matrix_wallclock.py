"""Cold vs. warm wall-clock of the parallel matrix engine.

Runs a reference (app × policy × rate) slice twice against a fresh
cache directory — once cold (every run simulated) and once warm (every
run answered from the persistent result cache) — and records both
wall-clock times plus the speedup into ``BENCH_matrix.json`` at the
repository root.  The warm/cold ratio is the headline number for the
caching layer; the ISSUE's acceptance bar is a ≥10× warm speedup.

Shrink the slice with ``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_APPS`` and
pick the worker count with ``REPRO_BENCH_JOBS`` (default: serial).
"""

from __future__ import annotations

import time
from pathlib import Path

from conftest import bench_apps, bench_jobs, bench_scale

from repro.experiments.runner import clear_trace_cache, run_matrix
from repro.resil.atomic import atomic_write_json
from repro.sim import cache as sim_cache

#: Default acceptance slice: one app per pattern type.
DEFAULT_APPS = ["BFS", "STN", "HOT"]
POLICIES = ["lru", "hpe"]
RATES = [0.75]

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_matrix.json"


def _timed_matrix(jobs: int) -> float:
    start = time.perf_counter()
    run_matrix(POLICIES, rates=RATES, apps=bench_apps() or DEFAULT_APPS,
               scale=bench_scale(), jobs=jobs)
    return time.perf_counter() - start


def test_matrix_cold_vs_warm(tmp_path):
    jobs = bench_jobs()
    previous_dir = sim_cache.cache_dir()
    previous_enabled = sim_cache.cache_enabled()
    sim_cache.configure(enabled=True, directory=tmp_path)
    clear_trace_cache()
    try:
        cold = _timed_matrix(jobs)
        warm = _timed_matrix(jobs)
    finally:
        sim_cache.configure(enabled=previous_enabled, directory=previous_dir)
    payload = {
        "apps": bench_apps() or DEFAULT_APPS,
        "policies": POLICIES,
        "rates": RATES,
        "scale": bench_scale(),
        "jobs": jobs,
        "cold_seconds": round(cold, 4),
        "warm_seconds": round(warm, 4),
        "warm_speedup": round(cold / warm, 2) if warm else float("inf"),
    }
    atomic_write_json(OUTPUT, payload)
    print()
    print(f"matrix wall-clock: cold {cold:.3f}s, warm {warm:.3f}s "
          f"({payload['warm_speedup']}x) -> {OUTPUT.name}")
    assert warm < cold

