"""Eviction strategies over the page set chain (Section IV-D).

Two strategies select the *page set* to evict from:

* **MRU-C** (MRU-counter based) — used for *regular* applications.
  Searches from the MRU position of the **old** partition for a page set
  whose counter equals the page-set size (a fully-populated,
  never-re-referenced set); if every counter is larger, it takes the
  minimum-counter (least frequently used) set.  Dynamic adjustment may
  move the search start point forward (toward the LRU end) by a fixed
  jump distance to pick "colder" sets.
* **LRU** — used for *irregular* applications: take the chain's least
  recent entry (old partition head; middle, then new when old is empty).

Both strategies only pick sets with at least one resident page (a chain
invariant removes fully-evicted sets, so every entry qualifies).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.chain import PageSetChain
from repro.core.pageset import PageSetEntry


class StrategyKind(enum.Enum):
    """The two page-set selection strategies HPE alternates between."""

    LRU = "lru"
    MRU_C = "mru-c"

    # Dynamic adjustment keys its per-strategy FIFOs and counters by
    # member on every fault; the C-level identity hash is safe for the
    # same reason as SetPart's (members are singletons, under pickle too).
    __hash__ = object.__hash__


@dataclass
class SearchResult:
    """Outcome of one page-set selection."""

    entry: Optional[PageSetEntry]
    #: Number of chain entries examined (Fig. 14's search overhead).
    comparisons: int


def select_lru(chain: PageSetChain) -> SearchResult:
    """Pick the least-recent page set (old → middle → new priority)."""
    entry = chain.lru_entry()
    return SearchResult(entry=entry, comparisons=1 if entry else 0)


def select_mru_c(
    chain: PageSetChain,
    page_set_size: int,
    jump: int = 0,
) -> SearchResult:
    """MRU-C over the **old** partition, starting ``jump`` sets in.

    Falls back to the least-recent entry of the middle/new partitions when
    the old partition is empty (the paper: "If the old partition becomes
    empty, LRU is used to select eviction candidates in the middle
    partition or new partition").  A jump past the end of the partition
    saturates at the LRU end rather than wrapping back to the (hot) MRU
    end.  The walk itself is :meth:`repro.core.soa.ArrayChain.mru_c_search`,
    the one implementation HPE's victim selection also calls.
    """
    entry, comparisons = chain.array.mru_c_search(page_set_size, jump)
    return SearchResult(entry=entry, comparisons=comparisons)


def select(
    kind: StrategyKind,
    chain: PageSetChain,
    page_set_size: int,
    jump: int = 0,
) -> SearchResult:
    """Dispatch to the requested strategy."""
    if kind is StrategyKind.MRU_C:
        return select_mru_c(chain, page_set_size, jump)
    return select_lru(chain)
