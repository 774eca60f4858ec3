"""Least-recently-used page replacement (the paper's primary baseline).

Uses the paper's "ideal model" for driver-side baselines: both page-walk
hits and page faults update the recency chain immediately and in exact
reference order, with no transfer latency (Section V-B).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.policies.base import EvictionPolicy, PolicyError


class LRUPolicy(EvictionPolicy):
    """Classic LRU over resident pages, updated at page-walk granularity."""

    name = "lru"
    uses_walk_hits = True

    def __init__(self) -> None:
        self._chain: OrderedDict[int, None] = OrderedDict()

    def on_page_in(self, page: int, fault_number: int) -> None:
        self._chain[page] = None
        self._chain.move_to_end(page)

    def on_walk_hit(self, page: int) -> None:
        if page in self._chain:
            self._chain.move_to_end(page)

    def select_victim(self) -> int:
        if not self._chain:
            raise PolicyError("LRU chain is empty; nothing to evict")
        page, _ = self._chain.popitem(last=False)
        return page

    def resident_count(self) -> int:
        return len(self._chain)
