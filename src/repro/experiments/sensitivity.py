"""Sensitivity studies from Section V that are not standalone figures."""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.core.hpe import HPEConfig
from repro.experiments.figures import FigureResult, _apps, _degraded_notes
from repro.experiments.runner import (
    DEFAULT_SEED,
    arithmetic_mean,
    run_scenario,
)
from repro.obs import finite_or_none
from repro.scenarios.spec import MatrixSpec
from repro.sim.config import GPUConfig


def transfer_interval(
    apps: Optional[Sequence[str]] = None,
    intervals: Sequence[int] = (1, 8, 16, 32, 64),
    rate: float = 0.75,
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
) -> FigureResult:
    """§V-A: how often to ship HIR contents to the driver.

    The paper sweeps 1/8/16/32/64 page faults per transfer and picks 16
    as the best tradeoff between driver interruption frequency and the
    freshness of the hit information.
    """
    apps = _apps(apps)
    rows: list[list[object]] = []
    ipc: dict[int, list[float]] = {}
    entries: dict[int, list[float]] = {}
    failed: list[str] = []
    for interval in intervals:
        matrix = run_scenario(MatrixSpec(
            ("hpe",), (rate,), tuple(apps), seed=seed, scale=scale,
            hpe_config=HPEConfig(transfer_interval=interval),
        ))
        failed += matrix.failure_lines()
        ipc[interval] = []
        entries[interval] = []
        for app in apps:
            result = matrix.lookup(app, "hpe", rate)
            if result is None:
                ipc[interval].append(math.nan)
                entries[interval].append(math.nan)
                continue
            ipc[interval].append(result.ipc)
            policy = result.extras["policy"]
            entries[interval].append(policy.hir.stats.mean_entries_per_transfer)
    base = arithmetic_mean(ipc[16]) if 16 in ipc else arithmetic_mean(
        ipc[intervals[0]]
    )
    for interval in intervals:
        rows.append([
            interval,
            arithmetic_mean(ipc[interval]) / base if base else 0.0,
            arithmetic_mean(entries[interval]),
        ])
    return FigureResult(
        "Sens.TI", f"Transfer-interval sensitivity ({rate:.0%} OS)",
        ["faults/transfer", "mean IPC (norm. 16)", "mean entries/transfer"],
        rows,
        ["paper: 16 is the best tradeoff between frequency and performance"]
        + _degraded_notes(failed),
    )


def walk_latency(
    apps: Optional[Sequence[str]] = None,
    latencies: Sequence[int] = (8, 20),
    rate: float = 0.75,
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
) -> FigureResult:
    """§V-B: page-walk latency has little influence on overall IPC."""
    apps = _apps(apps)
    ipc: dict[str, dict[int, float]] = {"lru": {}, "hpe": {}}
    failed: list[str] = []
    for latency in latencies:
        matrix = run_scenario(MatrixSpec(
            ("lru", "hpe"), (rate,), tuple(apps), seed=seed, scale=scale,
            config=GPUConfig().with_walk_latency(latency),
        ))
        failed += matrix.failure_lines()
        for policy_name, by_latency in ipc.items():
            results = [matrix.lookup(app, policy_name, rate) for app in apps]
            by_latency[latency] = arithmetic_mean(
                math.nan if result is None else result.ipc
                for result in results
            )
    rows: list[list[object]] = []
    for policy_name, ipcs in ipc.items():
        base = ipcs[latencies[0]]
        row: list[object] = [policy_name]
        for latency in latencies:
            row.append(ipcs[latency] / base if base else 0.0)
        rows.append(row)
    return FigureResult(
        "Sens.WL", f"Page-walk-latency sensitivity ({rate:.0%} OS)",
        ["policy"] + [f"{lat} cycles" for lat in latencies], rows,
        ["paper: minimal performance difference between 8 and 20 cycles"]
        + _degraded_notes(failed),
    )


def prefetch(
    apps: Optional[Sequence[str]] = None,
    degrees: Sequence[int] = (0, 1, 3, 7, 15),
    rate: float = 0.75,
    policy: str = "hpe",
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
) -> FigureResult:
    """Extension study: fault-around prefetching under oversubscription.

    Not in the paper (its runtime migrates one page per fault); real UVM
    runtimes fault-around in 64 KB chunks.  Sweeps the prefetch degree
    and reports mean faults and IPC: sequential workloads amortise fault
    service across prefetched pages, while prefetching into a thrashing
    memory adds eviction pressure — the interaction an eviction-policy
    study should quantify.

    Each degree is one cached matrix (``prefetch_degree`` is part of
    the scenario spec, hence the cache fingerprint), so re-running the
    sweep — or overlapping it with a ``prefetch-64k`` scenario run —
    costs nothing.
    """
    apps = _apps(apps)
    mean_faults: dict[int, float] = {}
    mean_ipc: dict[int, float] = {}
    failed: list[str] = []
    for degree in degrees:
        matrix = run_scenario(MatrixSpec(
            (policy,), (rate,), tuple(apps), seed=seed, scale=scale,
            prefetch_degree=degree,
        ))
        failed += matrix.failure_lines()
        faults: list[float] = []
        ipcs: list[float] = []
        for app in apps:
            result = matrix.lookup(app, policy, rate)
            faults.append(math.nan if result is None else result.faults)
            ipcs.append(math.nan if result is None else result.ipc)
        mean_faults[degree] = arithmetic_mean(faults)
        mean_ipc[degree] = arithmetic_mean(ipcs)
    # finite_or_none guards the baseline: NaN is truthy, so the old
    # ``base or 1.0`` idiom would silently propagate a degenerate
    # degree-0 mean into every normalised column.
    base_ipc = finite_or_none(mean_ipc[degrees[0]])
    rows: list[list[object]] = [
        [
            degree,
            mean_faults[degree],
            mean_ipc[degree] / base_ipc if base_ipc else float("nan"),
        ]
        for degree in degrees
    ]
    return FigureResult(
        "Sens.PF", f"Fault-around prefetch sweep ({policy}, {rate:.0%} OS)",
        ["prefetch degree", "mean faults",
         f"IPC (norm. degree {degrees[0]})"], rows,
        ["extension beyond the paper: degree 15 matches Pascal's 64 KB "
         "fault-around granularity"] + _degraded_notes(failed),
    )


SENSITIVITIES = {
    "prefetch": prefetch,
    "transfer-interval": transfer_interval,
    "walk-latency": walk_latency,
}
