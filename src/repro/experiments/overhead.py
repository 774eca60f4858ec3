"""Overhead analyses of Section V-C.

Three quantities back the paper's "HPE is cheap" argument:

* **HIR storage** versus a naive buffer that records every page-walk hit
  address in order (the paper reports 63% / 53% storage savings at
  75% / 50% oversubscription);
* **CPU core load** — fault handling plus chain-update time over total
  execution time;
* **classification / search wall-clock** — measured on this host and
  compared against the paper's published unit costs.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Sequence

from repro.core.classifier import classify
from repro.core.hir import ENTRY_BYTES
from repro.experiments.figures import (
    FigureResult,
    _apps,
    _degraded_notes,
    _hpe,
)
from repro.experiments.runner import (
    DEFAULT_SEED,
    arithmetic_mean,
    run_scenario,
)
from repro.scenarios.spec import MatrixSpec
from repro.sim.config import GPUConfig

#: Bytes to record one page address in the naive buffer (48-bit address).
ADDRESS_BYTES = 6

#: The paper's measured worst-case page-set-chain update cost (§V-C).
UPDATE_COST_US = 16.1


def hir_storage(
    apps: Optional[Sequence[str]] = None,
    rates: Sequence[float] = (0.75, 0.50),
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
) -> FigureResult:
    """Storage cost of HIR versus an in-order address buffer.

    A failed cell is left out of its rate's saving statistics (and
    flagged in the notes).
    """
    apps = _apps(apps)
    matrix = run_scenario(MatrixSpec(
        ("hpe",), tuple(rates), tuple(apps), seed=seed, scale=scale,
    ))
    rows: list[list[object]] = []
    for rate in rates:
        savings: list[float] = []
        for app in apps:
            policy = _hpe(matrix, app, rate)
            if policy is None:
                continue
            stats = policy.hir.stats
            hir_bytes = stats.entries_transferred * ENTRY_BYTES
            buffer_bytes = stats.records * ADDRESS_BYTES
            if buffer_bytes:
                savings.append(1.0 - hir_bytes / buffer_bytes)
        rows.append([
            f"{rate:.0%}",
            arithmetic_mean(savings),
            min(savings) if savings else 0.0,
            max(savings) if savings else 0.0,
        ])
    return FigureResult(
        "Ovh.HIR", "HIR storage saving vs in-order address buffer",
        ["rate", "mean saving", "min", "max"], rows,
        ["paper: 63% saving at 75% OS, 53% at 50% OS"]
        + _degraded_notes(matrix.failure_lines()),
    )


def core_load(
    apps: Optional[Sequence[str]] = None,
    rates: Sequence[float] = (0.75, 0.50),
    policies: Sequence[str] = ("lru", "rrip", "clock-pro", "hpe"),
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
) -> FigureResult:
    """Host-CPU utilisation estimate per policy (§V-C method).

    Core busy time = faults × fault-service time, plus — for HPE only —
    the paper's worst-case 16.1 µs chain update amortised over every
    16th fault, divided by total execution time.  A failed cell is left
    out of its policy's mean (and flagged in the notes).
    """
    apps = _apps(apps)
    config = GPUConfig()
    fault_us = config.pcie.fault_service_us
    matrix = run_scenario(MatrixSpec(
        tuple(policies), tuple(rates), tuple(apps), seed=seed, scale=scale,
    ))
    rows: list[list[object]] = []
    for rate in rates:
        for policy_name in policies:
            loads: list[float] = []
            for app in apps:
                result = matrix.lookup(app, policy_name, rate)
                if result is None:
                    continue
                total_us = result.cycles / (config.clock_ghz * 1e3)
                busy_us = result.faults * fault_us
                if policy_name == "hpe":
                    policy = result.extras["policy"]
                    busy_us += policy.hir.stats.transfers * UPDATE_COST_US
                if total_us:
                    loads.append(min(1.0, busy_us / total_us))
            rows.append([f"{rate:.0%}", policy_name, arithmetic_mean(loads)])
    return FigureResult(
        "Ovh.Load", "Estimated host-CPU core load",
        ["rate", "policy", "mean load"], rows,
        ["paper: LRU 29.9%/39.3%, RRIP 30.3%/39.5%, CLOCK-Pro 29.5%/39.2%, "
         "HPE 34.0%/47.2% (worst-case update costing)"]
        + _degraded_notes(matrix.failure_lines()),
    )


def classification_cost(
    app: str = "KMN",
    rate: float = 0.75,
    repeats: int = 200,
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
) -> FigureResult:
    """Wall-clock cost of one classification pass on KMN's chain.

    KMN has the largest footprint, so the paper uses it to bound the
    classification latency (16.7 µs on their host).
    """
    matrix = run_scenario(MatrixSpec(
        ("hpe",), (rate,), (app,), seed=seed, scale=scale,
    ))
    policy = _hpe(matrix, app, rate)
    row: list[object] = [math.nan, math.nan]
    if policy is not None:
        counters = policy.chain.counters()
        start = time.perf_counter()
        for _ in range(repeats):
            classify(counters, policy.config.page_set_size)
        elapsed_us = (time.perf_counter() - start) / repeats * 1e6
        row = [len(counters), elapsed_us]
    return FigureResult(
        "Ovh.Class", f"Classification wall-clock cost ({app}, {rate:.0%} OS)",
        ["chain length", "mean us per pass"],
        [row],
        [f"paper: 16.7 us on their host; "
         "performed once per execution, so negligible either way"]
        + _degraded_notes(matrix.failure_lines()),
    )


def search_cost(comparisons: int = 300, repeats: int = 2000) -> FigureResult:
    """Wall-clock cost of chain-search comparisons (paper's 300-item probe)."""
    probe = list(range(comparisons))
    start = time.perf_counter()
    acc = 0
    for _ in range(repeats):
        best = probe[0]
        for value in probe:
            if value < best:
                best = value
        acc += best
    elapsed_us = (time.perf_counter() - start) / repeats * 1e6
    return FigureResult(
        "Ovh.Search", f"Wall-clock for {comparisons} comparisons",
        ["comparisons", "mean us"],
        [[comparisons, elapsed_us]],
        ["paper: 300 comparisons cost 19.92% of the 20 us fault penalty"],
    )


OVERHEADS = {
    "hir-storage": hir_storage,
    "core-load": core_load,
    "classification": classification_cost,
    "search": search_cost,
}
