"""Set-associative TLB with LRU replacement.

Table I of the paper configures two TLB levels:

* private L1 TLB — 128 entries per SM, single port, 1-cycle latency, LRU;
* shared L2 TLB — 512 entries, 16-way associative, 10-cycle latency.

Both are instances of this class; associativity, size and latency are
parameters.  An LRU stack per set is kept with an ``OrderedDict`` so lookup
and insertion are O(1).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.memory.addressing import is_power_of_two


@dataclass
class TLBStats:
    """Hit/miss counters for one TLB instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    shootdowns: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 when never accessed)."""
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses


@dataclass
class TLBConfig:
    """Size/shape/latency of one TLB level."""

    entries: int = 128
    associativity: int = 128
    latency_cycles: int = 1
    name: str = "tlb"

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ValueError(f"entries must be positive, got {self.entries}")
        if self.associativity <= 0 or self.associativity > self.entries:
            raise ValueError(
                f"associativity must be in [1, {self.entries}], got {self.associativity}"
            )
        if self.entries % self.associativity:
            raise ValueError("entries must be a multiple of associativity")
        if not is_power_of_two(self.entries // self.associativity):
            raise ValueError("number of sets must be a power of two")
        if self.latency_cycles < 0:
            raise ValueError("latency_cycles must be non-negative")

    @property
    def num_sets(self) -> int:
        """Number of sets (entries / associativity)."""
        return self.entries // self.associativity


class TLB:
    """A set-associative translation lookaside buffer.

    Entries are keyed by virtual page number; the stored value is opaque to
    the TLB (the simulator stores the frame number, but nothing here depends
    on it).
    """

    def __init__(self, config: TLBConfig) -> None:
        self.config = config
        self.stats = TLBStats()
        self._set_mask = config.num_sets - 1
        self._sets: list[OrderedDict[int, int]] = [
            OrderedDict() for _ in range(config.num_sets)
        ]

    def _set_of(self, page: int) -> OrderedDict[int, int]:
        return self._sets[page & self._set_mask]

    def lookup(self, page: int) -> bool:
        """Probe for ``page``; update LRU order and stats; return hit."""
        entries = self._sets[page & self._set_mask]
        if page in entries:
            entries.move_to_end(page)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        return False

    def insert(self, page: int, frame: int = 0) -> None:
        """Install a translation, evicting the set's LRU entry if full."""
        entries = self._sets[page & self._set_mask]
        if page in entries:
            entries.move_to_end(page)
            entries[page] = frame
            return
        if len(entries) >= self.config.associativity:
            entries.popitem(last=False)
            self.stats.evictions += 1
        entries[page] = frame

    def invalidate(self, page: int) -> bool:
        """Shootdown: drop ``page``'s translation if present."""
        entries = self._sets[page & self._set_mask]
        if page in entries:
            del entries[page]
            self.stats.shootdowns += 1
            return True
        return False

    # -- fast-path support -------------------------------------------------

    def fastpath_state(self) -> tuple[list[OrderedDict[int, int]], int, int, int]:
        """Internals for a flattened simulation loop.

        Returns ``(sets, set_mask, associativity, latency_cycles)``.  The
        caller may probe/mutate the set dictionaries directly — with
        exactly the :meth:`lookup`/:meth:`insert`/:meth:`invalidate`
        update rules — provided it reports the hit/miss/eviction counts
        it accumulated through :meth:`add_batched_stats` afterwards and
        adds the shootdowns it performed to ``stats.shootdowns``.
        """
        return (
            self._sets,
            self._set_mask,
            self.config.associativity,
            self.config.latency_cycles,
        )

    def add_batched_stats(self, hits: int, misses: int, evictions: int) -> None:
        """Fold counters accumulated outside this class into the stats."""
        stats = self.stats
        stats.hits += hits
        stats.misses += misses
        stats.evictions += evictions

    def flush(self) -> None:
        """Drop every translation."""
        for entries in self._sets:
            entries.clear()

    def __contains__(self, page: int) -> bool:
        return page in self._set_of(page)

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._sets)
