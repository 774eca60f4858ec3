"""HPE core: the paper's contribution (Section IV)."""

from repro.core.adjustment import (
    AdjustmentStats,
    DynamicAdjustment,
    EvictionFIFO,
    StrategySegment,
)
from repro.core.classifier import (
    Category,
    Classification,
    CounterCensus,
    census_counters,
    classify,
)
from repro.core.hir import HIRCache, HIRStats
from repro.core.history import HistoryBuffer
from repro.core.hpe import HPEConfig, HPEPolicy, HPEStats
from repro.core.pageset import (
    COUNTER_CAP,
    PageSetEntry,
    SetPart,
    primary_key,
    secondary_key,
)
from repro.core.strategies import StrategyKind

__all__ = [
    "AdjustmentStats",
    "COUNTER_CAP",
    "Category",
    "Classification",
    "CounterCensus",
    "DynamicAdjustment",
    "EvictionFIFO",
    "HIRCache",
    "HIRStats",
    "HPEConfig",
    "HPEPolicy",
    "HPEStats",
    "HistoryBuffer",
    "PageSetEntry",
    "SetPart",
    "StrategyKind",
    "StrategySegment",
    "census_counters",
    "classify",
    "primary_key",
    "secondary_key",
]
