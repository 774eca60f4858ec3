"""Ablation studies for HPE's design choices.

DESIGN.md calls out five load-bearing mechanisms; each ablation disables
or replaces one of them and reruns the suite, quantifying how much that
mechanism contributes to HPE's headline speedup over LRU:

* ``full``            — HPE as evaluated (reference);
* ``no-hir``          — the ideal hit-information model: hits reach the
  driver immediately instead of batched through HIR (upper bound on what
  better hit plumbing could buy);
* ``no-hits``         — HIR disabled entirely: the chain sees faults only
  (what the driver can do without any hardware support);
* ``no-adjustment``   — classification only, no Algorithm 1 switching;
* ``no-division``     — page sets never divide (NW's even/odd problem);
* ``relaxed-division``— divide at counter 32 instead of 64 (the paper's
  "relaxing the division requirement" remark about NW);
* ``always-lru`` / ``always-mru-c`` — pin one strategy, measuring what
  the classification machinery itself is worth.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.core.hpe import HPEConfig
from repro.core.strategies import StrategyKind
from repro.experiments.figures import FigureResult, _apps, _degraded_notes
from repro.experiments.runner import (
    DEFAULT_SEED,
    arithmetic_mean,
    run_scenario,
)
from repro.scenarios.spec import MatrixSpec


#: Ablation variant name → HPE configuration.  ``no-hits`` sets a
#: transfer interval the run can never reach, so the HIR is present but
#: its contents never arrive at the driver.
VARIANTS: dict[str, HPEConfig] = {
    "full": HPEConfig(),
    "no-hir": HPEConfig(use_hir=False),
    "no-hits": HPEConfig(transfer_interval=10**9),
    "no-adjustment": HPEConfig(enable_adjustment=False),
    "no-division": HPEConfig(enable_division=False),
    "relaxed-division": HPEConfig(division_threshold=32),
    "always-lru": HPEConfig(forced_strategy=StrategyKind.LRU),
    "always-mru-c": HPEConfig(forced_strategy=StrategyKind.MRU_C),
}


def ablation(
    apps: Optional[Sequence[str]] = None,
    variants: Optional[Sequence[str]] = None,
    rate: float = 0.75,
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
) -> FigureResult:
    """Mean HPE-over-LRU speedup and eviction ratio per variant.

    An application whose LRU or HPE cell failed is left out of its
    variant's row (and flagged in the notes).
    """
    apps = _apps(apps)
    names = list(variants) if variants is not None else list(VARIANTS)
    unknown = [name for name in names if name not in VARIANTS]
    if unknown:
        raise ValueError(
            f"unknown ablation variant(s) {unknown}; "
            f"known: {', '.join(VARIANTS)}"
        )
    lru = run_scenario(MatrixSpec(
        ("lru",), (rate,), tuple(apps), seed=seed, scale=scale,
    ))
    failed = lru.failure_lines()
    rows: list[list[object]] = []
    for name in names:
        hpe = run_scenario(MatrixSpec(
            ("hpe",), (rate,), tuple(apps), seed=seed, scale=scale,
            hpe_config=VARIANTS[name],
        ))
        failed += hpe.failure_lines()
        speedups: list[float] = []
        eviction_ratios: list[float] = []
        for app in apps:
            base = lru.lookup(app, "lru", rate)
            result = hpe.lookup(app, "hpe", rate)
            if base is not None and result is not None:
                speedups.append(result.speedup_over(base))
                eviction_ratios.append(result.evictions_normalized_to(base))
        rows.append([
            name,
            arithmetic_mean(speedups),
            min(speedups, default=math.nan),
            arithmetic_mean(eviction_ratios),
        ])
    return FigureResult(
        "Ablation", f"HPE design-choice ablations vs LRU ({rate:.0%} OS)",
        ["variant", "mean speedup", "worst app", "evictions/LRU"], rows,
        ["'full' is the evaluated configuration; each other row removes "
         "or replaces one mechanism from DESIGN.md"]
        + _degraded_notes(failed),
    )
