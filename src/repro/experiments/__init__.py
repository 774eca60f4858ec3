"""Experiment harnesses regenerating every table and figure of the paper."""

from repro.experiments.ablation import VARIANTS as ABLATION_VARIANTS
from repro.experiments.ablation import ablation

from repro.experiments.figures import (
    FIGURES,
    FigureResult,
    figure3,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
)
from repro.experiments.overhead import (
    OVERHEADS,
    classification_cost,
    core_load,
    hir_storage,
    search_cost,
)
from repro.experiments.runner import (
    DEFAULT_SEED,
    PAPER_RATES,
    POLICY_NAMES,
    ResultMatrix,
    RunKey,
    TraceCache,
    arithmetic_mean,
    geometric_mean,
    make_policy,
)
from repro.experiments.sensitivity import (
    SENSITIVITIES,
    prefetch,
    transfer_interval,
    walk_latency,
)
from repro.experiments.tables import TABLES, table1, table2, table3

__all__ = [
    "ABLATION_VARIANTS",
    "DEFAULT_SEED",
    "FIGURES",
    "FigureResult",
    "OVERHEADS",
    "PAPER_RATES",
    "POLICY_NAMES",
    "ResultMatrix",
    "RunKey",
    "SENSITIVITIES",
    "TABLES",
    "TraceCache",
    "ablation",
    "arithmetic_mean",
    "classification_cost",
    "core_load",
    "figure3",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "geometric_mean",
    "hir_storage",
    "make_policy",
    "prefetch",
    "search_cost",
    "table1",
    "table2",
    "table3",
    "transfer_interval",
    "walk_latency",
]
