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
invariant removes fully-evicted sets, so every entry qualifies).  The
walks themselves are :meth:`repro.core.soa.ArrayChain.mru_c_search` and
:meth:`~repro.core.soa.ArrayChain.first_payload`, which HPE's victim
selection calls directly.
"""

from __future__ import annotations

import enum


class StrategyKind(enum.Enum):
    """The two page-set selection strategies HPE alternates between."""

    LRU = "lru"
    MRU_C = "mru-c"

    # Dynamic adjustment keys its per-strategy FIFOs and counters by
    # member on every fault; the C-level identity hash is safe for the
    # same reason as SetPart's (members are singletons, under pickle too).
    __hash__ = object.__hash__
