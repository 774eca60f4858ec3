"""Harnesses regenerating the paper's tables."""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.experiments.figures import (
    FigureResult,
    _apps,
    _degraded_notes,
    _hpe,
    _pattern,
)
from repro.experiments.runner import DEFAULT_SEED, run_scenario
from repro.memory.addressing import PAGE_SIZE_BYTES
from repro.scenarios.spec import MatrixSpec
from repro.sim.config import GPUConfig
from repro.workloads.suite import get_application


def table1(config: Optional[GPUConfig] = None) -> FigureResult:
    """Table I — configuration of the simulated system."""
    config = config or GPUConfig()
    rows = [
        ["GPU cores", f"{config.num_sms} SMs, {config.clock_ghz} GHz"],
        ["Warps per SM", str(config.warps_per_sm)],
        ["Private L1 TLB",
         f"{config.l1_tlb.entries}-entry per SM, "
         f"{config.l1_tlb.latency_cycles}-cycle latency, LRU"],
        ["Shared L2 TLB",
         f"{config.l2_tlb.entries}-entry, "
         f"{config.l2_tlb.associativity}-way, "
         f"{config.l2_tlb.latency_cycles}-cycle latency, LRU"],
        ["Page walk", f"{config.walk_latency_cycles} cycles, single-level table"],
        ["Page size", f"{PAGE_SIZE_BYTES} bytes"],
        ["CPU-GPU interconnect",
         f"{config.pcie.bandwidth_gbs:.0f} GB/s, "
         f"{config.pcie.fault_service_us:.0f} us fault service"],
        ["DRAM latency (model)", f"{config.memory_latency_cycles} cycles"],
    ]
    return FigureResult(
        "Table.I", "Configuration of the simulated system",
        ["component", "configuration"], rows,
    )


def table2(
    apps: Optional[Sequence[str]] = None,
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
) -> FigureResult:
    """Table II — workload characteristics (plus trace statistics)."""
    apps = _apps(apps)
    rows = []
    for app in apps:
        spec = get_application(app)
        trace = spec.build(seed=seed, scale=scale)
        footprint_mb = trace.footprint_pages * PAGE_SIZE_BYTES / (1 << 20)
        rows.append([
            app, spec.name, spec.suite, spec.pattern_type.roman,
            trace.footprint_pages, f"{footprint_mb:.1f}", len(trace),
        ])
    return FigureResult(
        "Table.II", "Workload characteristics",
        ["abbr", "application", "suite", "type", "pages", "MB", "episodes"],
        rows,
        ["footprints scaled down from the paper's 3-130 MB; "
         "oversubscription is relative so dynamics are preserved"],
    )


def table3(
    apps: Optional[Sequence[str]] = None,
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
    rate: float = 0.75,
) -> FigureResult:
    """Table III — statistics-based classification outcome per app."""
    apps = _apps(apps)
    matrix = run_scenario(MatrixSpec(
        ("hpe",), (rate,), tuple(apps), seed=seed, scale=scale,
    ))
    rows = []
    for app in apps:
        policy = _hpe(matrix, app, rate)
        if policy is None:
            rows.append([app, _pattern(app), "-", math.nan, math.nan])
            continue
        if policy.classification is None:
            rows.append([app, _pattern(app), "(never full)", "-", "-"])
            continue
        census = policy.classification.census
        rows.append([
            app, _pattern(app), policy.classification.category.value,
            min(census.ratio1, 999.0), min(census.ratio2, 999.0),
        ])
    return FigureResult(
        "Table.III", f"Classification at first-full ({rate:.0%} OS)",
        ["app", "type", "category", "ratio1", "ratio2"], rows,
        ["thresholds: ratio1 <= 0.3, ratio2 >= 2 (Section IV-D)"]
        + _degraded_notes(matrix.failure_lines()),
    )


#: Registry used by the CLI.
TABLES = {"1": table1, "2": table2, "3": table3}
