"""Harnesses regenerating every figure of the paper's evaluation.

Each ``figureN`` function builds the
:class:`~repro.scenarios.spec.MatrixSpec` grids it needs, runs them
through :func:`~repro.experiments.runner.run_scenario` and returns a
:class:`FigureResult` whose rows mirror the series the paper plots; call
:meth:`FigureResult.render` for a text table.  A cell whose retries were
exhausted never raises: its values render as NaN, its text as ``-``, and
the figure's notes flag it as DEGRADED.
Absolute numbers differ from the paper (different substrate, scaled
footprints) — the *shape* (who wins, by roughly what factor, where
crossovers fall) is the reproduction target, recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.hpe import HPEConfig, HPEPolicy
from repro.core.strategies import StrategyKind
from repro.experiments.report import format_table
from repro.experiments.runner import (
    DEFAULT_SEED,
    PAPER_RATES,
    ResultMatrix,
    arithmetic_mean,
    geometric_mean,
    run_scenario,
)
from repro.scenarios.spec import MatrixSpec
from repro.workloads.base import PatternType
from repro.workloads.suite import (
    APPLICATION_ORDER,
    APPLICATIONS,
    MANUAL_STRATEGY,
)


@dataclass
class FigureResult:
    """One regenerated figure: titled rows plus free-form notes."""

    figure_id: str
    title: str
    headers: list[str]
    rows: list[list[object]]
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        text = format_table(
            self.headers, self.rows, title=f"[{self.figure_id}] {self.title}"
        )
        if self.notes:
            text += "\n" + "\n".join(f"note: {n}" for n in self.notes)
        return text


def _apps(apps: Optional[Sequence[str]]) -> list[str]:
    return list(apps) if apps is not None else list(APPLICATION_ORDER)


def _degraded_notes(failure_lines: Sequence[str]) -> list[str]:
    """Flag every failed cell of the matrices a harness ran (their
    :meth:`~ResultMatrix.failure_lines`), so a degraded figure is never
    mistaken for a complete one."""
    if not failure_lines:
        return []
    return [
        f"DEGRADED: {len(failure_lines)} cell(s) failed after retries; "
        "affected values are NaN and excluded from means"
    ] + [f"DEGRADED: {line}" for line in failure_lines]


def _hpe(matrix: ResultMatrix, app: str, rate: float) -> Optional[HPEPolicy]:
    """The HPE policy object of one cell, or ``None`` when it failed."""
    result = matrix.lookup(app, "hpe", rate)
    return None if result is None else result.extras["policy"]


def _pattern(app: str) -> str:
    return APPLICATIONS[app].pattern_type.roman


def _manual_config(**overrides: object) -> HPEConfig:
    """Sensitivity-study configuration (Section V-A).

    Dynamic adjustment off, ideal hit-information model (no HIR), and a
    manually selected strategy per application (applied by the caller via
    ``forced_strategy``).
    """
    defaults = dict(use_hir=False, enable_adjustment=False)
    defaults.update(overrides)
    return HPEConfig(**defaults)  # type: ignore[arg-type]


def _forced(app: str) -> StrategyKind:
    return (
        StrategyKind.MRU_C
        if MANUAL_STRATEGY[app] == "mru-c"
        else StrategyKind.LRU
    )


# ----------------------------------------------------------------------
# Fig. 3 — evictions of LRU and RRIP normalised to Ideal (75%)
# ----------------------------------------------------------------------


def figure3(
    apps: Optional[Sequence[str]] = None,
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
) -> FigureResult:
    """Motivation: LRU/RRIP evictions over Belady's MIN at 75% OS."""
    apps = _apps(apps)
    matrix = run_scenario(MatrixSpec(
        ("ideal", "lru", "rrip"), (0.75,), tuple(apps), seed=seed, scale=scale,
    ))
    rows: list[list[object]] = []
    lru_ratios, rrip_ratios = [], []
    for app in apps:
        lru = matrix.eviction_ratio(app, "lru", "ideal", 0.75)
        rrip = matrix.eviction_ratio(app, "rrip", "ideal", 0.75)
        lru_ratios.append(lru)
        rrip_ratios.append(rrip)
        rows.append([app, _pattern(app), lru, rrip])
    rows.append(["MEAN", "-", arithmetic_mean(lru_ratios),
                 arithmetic_mean(rrip_ratios)])
    return FigureResult(
        "Fig.3", "Evictions of LRU and RRIP normalised to Ideal (75% OS)",
        ["app", "type", "LRU/Ideal", "RRIP/Ideal"], rows,
        ["paper shape: RRIP thrashes on SRD/HSD; LRU fine for type I "
         "(except GEM) and type VI; both poor for BFS/HIS/SPV"]
        + _degraded_notes(matrix.failure_lines()),
    )


# ----------------------------------------------------------------------
# Fig. 7 / Fig. 8 — sensitivity to page set size and interval length
# ----------------------------------------------------------------------


def _sensitivity_by_type(
    configs: dict[int, HPEConfig],
    baseline_value: int,
    apps: Sequence[str],
    seed: int,
    scale: float,
    rate: float = 0.75,
) -> tuple[list[list[object]], list[int], list[str]]:
    """Average per-pattern-type IPC for each config, normalised.

    The forced strategy depends on the application, so each config runs
    one matrix per :data:`MANUAL_STRATEGY` group.  Also returns the
    failure lines of every matrix.
    """
    values = sorted(configs)
    ipc: dict[tuple[str, int], float] = {}
    failed: list[str] = []
    for value, config in configs.items():
        for kind in StrategyKind:
            group = tuple(app for app in apps if _forced(app) is kind)
            if not group:
                continue
            matrix = run_scenario(MatrixSpec(
                ("hpe",), (rate,), group, seed=seed, scale=scale,
                hpe_config=dataclasses.replace(config, forced_strategy=kind),
            ))
            failed += matrix.failure_lines()
            for app in group:
                result = matrix.lookup(app, "hpe", rate)
                ipc[(app, value)] = math.nan if result is None else result.ipc
    rows: list[list[object]] = []
    for pattern in PatternType:
        members = [a for a in apps if APPLICATIONS[a].pattern_type is pattern]
        if not members:
            continue
        base = arithmetic_mean(ipc[(a, baseline_value)] for a in members)
        row: list[object] = [f"type {pattern.roman}"]
        for value in values:
            mean_ipc = arithmetic_mean(ipc[(a, value)] for a in members)
            row.append(mean_ipc / base if base else 0.0)
        rows.append(row)
    overall_base = arithmetic_mean(ipc[(a, baseline_value)] for a in apps)
    row = ["MEAN"]
    for value in values:
        mean_ipc = arithmetic_mean(ipc[(a, value)] for a in apps)
        row.append(mean_ipc / overall_base if overall_base else 0.0)
    rows.append(row)
    return rows, values, failed


def figure7(
    apps: Optional[Sequence[str]] = None,
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
    sizes: Sequence[int] = (8, 16, 32),
) -> FigureResult:
    """HPE's sensitivity to page set size (interval length 64)."""
    apps = _apps(apps)
    configs = {
        size: _manual_config(page_set_size=size, interval_length=64)
        for size in sizes
    }
    rows, values, failed = _sensitivity_by_type(
        configs, values_base(sizes), apps, seed, scale
    )
    return FigureResult(
        "Fig.7", "Sensitivity to page set size (IPC normalised to size "
        f"{values_base(sizes)})",
        ["pattern"] + [f"size {v}" for v in values], rows,
        ["paper shape: all sizes within ~10%; 16 chosen as a compromise"]
        + _degraded_notes(failed),
    )


def figure8(
    apps: Optional[Sequence[str]] = None,
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
    lengths: Sequence[int] = (32, 64, 128),
) -> FigureResult:
    """HPE's sensitivity to interval length (page set size 16)."""
    apps = _apps(apps)
    configs = {
        length: _manual_config(page_set_size=16, interval_length=length)
        for length in lengths
    }
    rows, values, failed = _sensitivity_by_type(
        configs, values_base(lengths), apps, seed, scale
    )
    return FigureResult(
        "Fig.8", "Sensitivity to interval length (IPC normalised to "
        f"length {values_base(lengths)})",
        ["pattern"] + [f"len {v}" for v in values], rows,
        ["paper shape: all lengths within ~12%; 64 chosen"]
        + _degraded_notes(failed),
    )


def values_base(values: Sequence[int]) -> int:
    """The smallest swept value is the normalisation baseline."""
    return min(values)


# ----------------------------------------------------------------------
# Fig. 9 — ratio1/ratio2 and classification per application
# ----------------------------------------------------------------------


def figure9(
    apps: Optional[Sequence[str]] = None,
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
    rate: float = 0.75,
) -> FigureResult:
    """Classification statistics when memory first fills."""
    apps = _apps(apps)
    matrix = run_scenario(MatrixSpec(
        ("hpe",), (rate,), tuple(apps), seed=seed, scale=scale,
    ))
    rows: list[list[object]] = []
    for app in apps:
        policy = _hpe(matrix, app, rate)
        if policy is None:
            rows.append([app, _pattern(app), math.nan, math.nan, "-"])
            continue
        classification = policy.classification
        if classification is None:
            rows.append([app, _pattern(app), "-", "-", "(memory never filled)"])
            continue
        census = classification.census
        ratio1 = census.ratio1 if census.ratio1 != float("inf") else 999.0
        ratio2 = census.ratio2 if census.ratio2 != float("inf") else 999.0
        rows.append([
            app, _pattern(app), ratio1, ratio2,
            classification.category.value,
        ])
    return FigureResult(
        "Fig.9", f"ratio1 / ratio2 at first-full ({rate:.0%} OS; 999 = inf)",
        ["app", "type", "ratio1", "ratio2", "category"], rows,
        ["paper shape: types I-III small ratios (KMN/SAD outliers); "
         "types IV-VI large ratio1 or ratio2 (SGM outlier)"]
        + _degraded_notes(matrix.failure_lines()),
    )


# ----------------------------------------------------------------------
# Fig. 10 / Fig. 11 — HPE vs LRU (IPC and evictions)
# ----------------------------------------------------------------------


def figure10(
    apps: Optional[Sequence[str]] = None,
    rates: Sequence[float] = PAPER_RATES,
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
) -> FigureResult:
    """HPE's IPC speedup over LRU per application and rate."""
    apps = _apps(apps)
    matrix = run_scenario(MatrixSpec(
        ("lru", "hpe"), tuple(rates), tuple(apps), seed=seed, scale=scale,
    ))
    rows: list[list[object]] = []
    means: dict[float, list[float]] = {rate: [] for rate in rates}
    for app in apps:
        row: list[object] = [app, _pattern(app)]
        for rate in rates:
            speedup = matrix.speedup(app, "hpe", "lru", rate)
            means[rate].append(speedup)
            row.append(speedup)
        rows.append(row)
    rows.append(["MEAN", "-"] + [arithmetic_mean(means[r]) for r in rates])
    rows.append(["GEOMEAN", "-"] + [geometric_mean(means[r]) for r in rates])
    return FigureResult(
        "Fig.10", "HPE speedup over LRU (IPC ratio)",
        ["app", "type"] + [f"{r:.0%}" for r in rates], rows,
        ["paper: mean 1.34x @75%, 1.16x @50%, max 2.81x (HSD)"]
        + _degraded_notes(matrix.failure_lines()),
    )


def figure11(
    apps: Optional[Sequence[str]] = None,
    rates: Sequence[float] = PAPER_RATES,
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
) -> FigureResult:
    """HPE's evictions relative to LRU per application and rate."""
    apps = _apps(apps)
    matrix = run_scenario(MatrixSpec(
        ("lru", "hpe"), tuple(rates), tuple(apps), seed=seed, scale=scale,
    ))
    rows: list[list[object]] = []
    means: dict[float, list[float]] = {rate: [] for rate in rates}
    for app in apps:
        row: list[object] = [app, _pattern(app)]
        for rate in rates:
            ratio = matrix.eviction_ratio(app, "hpe", "lru", rate)
            means[rate].append(ratio)
            row.append(ratio)
        rows.append(row)
    rows.append(["MEAN", "-"] + [arithmetic_mean(means[r]) for r in rates])
    return FigureResult(
        "Fig.11", "HPE evictions normalised to LRU",
        ["app", "type"] + [f"{r:.0%}" for r in rates], rows,
        ["paper: HPE evicts 18% fewer pages @75%, 12% fewer @50%"]
        + _degraded_notes(matrix.failure_lines()),
    )


# ----------------------------------------------------------------------
# Fig. 12 — all policies normalised to Ideal
# ----------------------------------------------------------------------


def figure12(
    apps: Optional[Sequence[str]] = None,
    rates: Sequence[float] = PAPER_RATES,
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
) -> FigureResult:
    """IPC and evictions of every policy normalised to Ideal."""
    apps = _apps(apps)
    policies = ["ideal", "lru", "random", "rrip", "clock-pro", "hpe"]
    matrix = run_scenario(MatrixSpec(
        tuple(policies), tuple(rates), tuple(apps), seed=seed, scale=scale,
    ))
    compared = policies[1:]
    rows: list[list[object]] = []
    for rate in rates:
        perf: dict[str, list[float]] = {p: [] for p in compared}
        evic: dict[str, list[float]] = {p: [] for p in compared}
        for app in apps:
            for policy in compared:
                perf[policy].append(matrix.speedup(app, policy, "ideal", rate))
                evic[policy].append(
                    matrix.eviction_ratio(app, policy, "ideal", rate)
                )
        for policy in compared:
            rows.append([
                f"{rate:.0%}", policy,
                arithmetic_mean(perf[policy]),
                arithmetic_mean(evic[policy]),
            ])
    return FigureResult(
        "Fig.12", "Policies normalised to Ideal (mean over apps)",
        ["rate", "policy", "IPC/Ideal", "evictions/Ideal"], rows,
        ["paper @75%: HPE within 11% of Ideal IPC, 18% more evictions; "
         "1.16x/1.27x/1.2x over random/RRIP/CLOCK-Pro",
         "per-app data available via run_scenario for deeper analysis"]
        + _degraded_notes(matrix.failure_lines()),
    )


# ----------------------------------------------------------------------
# Fig. 13 — strategy-adjustment breakdown
# ----------------------------------------------------------------------


def figure13(
    apps: Optional[Sequence[str]] = None,
    rates: Sequence[float] = PAPER_RATES,
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
) -> FigureResult:
    """Fraction of execution (in faults) spent under each strategy."""
    apps = _apps(apps)
    matrix = run_scenario(MatrixSpec(
        ("hpe",), tuple(rates), tuple(apps), seed=seed, scale=scale,
    ))
    rows: list[list[object]] = []
    for rate in rates:
        for app in apps:
            policy = _hpe(matrix, app, rate)
            if policy is None:
                rows.append([f"{app} {rate:.0%}", "-"] + [math.nan] * 4)
                continue
            if policy.adjustment is None:
                rows.append([f"{app} {rate:.0%}", "-", 0.0, 0.0, 0, 0])
                continue
            timeline = policy.adjustment.timeline(policy.stats.faults)
            total = max(1, policy.stats.faults)
            lru_faults = sum(
                seg.end_fault - seg.start_fault
                for seg in timeline if seg.strategy is StrategyKind.LRU
            )
            mru_faults = total - lru_faults
            stats = policy.adjustment.stats
            rows.append([
                f"{app} {rate:.0%}",
                policy.category.value if policy.category else "-",
                lru_faults / total,
                mru_faults / total,
                stats.strategy_switches,
                stats.jump_adjustments,
            ])
    return FigureResult(
        "Fig.13", "Eviction-strategy breakdown (fraction of faults)",
        ["app@rate", "category", "LRU", "MRU-C", "switches", "jumps"], rows,
        ["paper: KMN/NW/B+T/HYB/SPV/MVT pure LRU; "
         "HOT/BKP/PAT/LEU/CUT/MRQ/STN/2DC/GEM pure MRU-C; "
         "SRD/BFS/SAD/HIS adjust at both rates; DWT/HSD/SGM only at 50%"]
        + _degraded_notes(matrix.failure_lines()),
    )


# ----------------------------------------------------------------------
# Fig. 14 — average search overhead
# ----------------------------------------------------------------------


def figure14(
    apps: Optional[Sequence[str]] = None,
    rates: Sequence[float] = PAPER_RATES,
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
) -> FigureResult:
    """Mean comparisons per MRU-C victim search.

    Applications that used LRU for their entire execution are omitted,
    as in the paper.
    """
    apps = _apps(apps)
    matrix = run_scenario(MatrixSpec(
        ("hpe",), tuple(rates), tuple(apps), seed=seed, scale=scale,
    ))
    rows: list[list[object]] = []
    for rate in rates:
        for app in apps:
            policy = _hpe(matrix, app, rate)
            if policy is None:
                rows.append([f"{app} {rate:.0%}"] + [math.nan] * 3)
                continue
            adjustment = policy.adjustment
            if adjustment is None:
                continue
            used_mru_c = any(
                seg.strategy is StrategyKind.MRU_C
                for seg in adjustment.timeline(policy.stats.faults)
            )
            if not used_mru_c:
                continue
            rows.append([
                f"{app} {rate:.0%}",
                policy.stats.mean_comparisons,
                policy.stats.comparisons_max,
                policy.stats.searches,
            ])
    return FigureResult(
        "Fig.14", "Average MRU-C search overhead (comparisons per search)",
        ["app@rate", "mean", "max", "searches"], rows,
        ["paper: typically < 50 comparisons, outliers BFS and HIS"]
        + _degraded_notes(matrix.failure_lines()),
    )


# ----------------------------------------------------------------------
# Fig. 15 — HIR entries transferred
# ----------------------------------------------------------------------


def figure15(
    apps: Optional[Sequence[str]] = None,
    rates: Sequence[float] = (0.75,),
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
) -> FigureResult:
    """Average populated HIR entries shipped per transfer."""
    apps = _apps(apps)
    matrix = run_scenario(MatrixSpec(
        ("hpe",), tuple(rates), tuple(apps), seed=seed, scale=scale,
    ))
    rows: list[list[object]] = []
    for rate in rates:
        for app in apps:
            policy = _hpe(matrix, app, rate)
            if policy is None:
                rows.append([f"{app} {rate:.0%}"] + [math.nan] * 3)
                continue
            stats = policy.hir.stats
            rows.append([
                f"{app} {rate:.0%}",
                stats.mean_entries_per_transfer,
                stats.transfers,
                stats.conflicts,
            ])
    return FigureResult(
        "Fig.15", "HIR entries transferred per transfer (mean)",
        ["app@rate", "mean entries", "transfers", "way conflicts"], rows,
        ["paper: fewer than ten entries for most applications; MVT the "
         "outlier (139) due to its stride-4 pages"]
        + _degraded_notes(matrix.failure_lines()),
    )


#: Registry used by the CLI: figure id → harness.
FIGURES = {
    "3": figure3,
    "7": figure7,
    "8": figure8,
    "9": figure9,
    "10": figure10,
    "11": figure11,
    "12": figure12,
    "13": figure13,
    "14": figure14,
    "15": figure15,
}
