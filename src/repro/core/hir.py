"""HIR — the "hit information record" cache (Section IV-B, Fig. 4).

A small set-associative cache beside the page-table walker.  Each entry
holds a page-set tag and a vector of per-page saturating counters (2 bits
each in hardware) recording how many page-walk *hits* each page of the set
received since the last transfer.

Every ``transfer_interval``-th page fault the touched entries are copied —
in first-touch order, to preserve a relaxed reference order — to a buffer
in GPU memory and shipped to the host GPU driver over PCIe, then the HIR
is flushed.  Way conflicts drop information (the paper accepts this; an
8-way, 1024-entry HIR avoids conflicts "for most applications except
MVT").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.memory.addressing import PageSetGeometry, is_power_of_two

if TYPE_CHECKING:
    from repro.obs.registry import MetricsRegistry

#: Hardware counter width in bits (Section V-C overhead analysis).
COUNTER_BITS = 2

#: Saturation cap of one per-page hit counter.
COUNTER_MAX = (1 << COUNTER_BITS) - 1

#: Bytes per transferred HIR entry (48-bit tag + 16 × 2-bit counters).
ENTRY_BYTES = 10


@dataclass
class HIRStats:
    """Lifetime statistics of one HIR instance."""

    records: int = 0
    conflicts: int = 0
    #: Transfers that actually carried entries.
    transfers: int = 0
    #: Transfers triggered while no entry was touched (quiet intervals);
    #: counted apart so they cannot deflate the Fig. 15 mean.
    empty_transfers: int = 0
    entries_transferred: int = 0

    @property
    def total_transfers(self) -> int:
        """Every transfer the mechanism performed, payload or not."""
        return self.transfers + self.empty_transfers

    @property
    def mean_entries_per_transfer(self) -> float:
        """Average populated entries per *non-empty* transfer (Fig. 15).

        Empty transfers are excluded: an app with quiet intervals would
        otherwise report an artificially deflated mean.
        """
        if not self.transfers:
            return 0.0
        return self.entries_transferred / self.transfers

    def observe_into(self, registry: MetricsRegistry) -> None:
        """Fold the lifetime tallies into a ``MetricsRegistry``."""
        registry.inc("hir.records", self.records)
        registry.inc("hir.conflicts", self.conflicts)
        registry.inc("hir.transfers", self.transfers)
        registry.inc("hir.empty_transfers", self.empty_transfers)
        registry.inc("hir.entries_transferred", self.entries_transferred)


class _HIREntry:
    """One HIR line: a page-set tag plus per-page hit counters."""

    __slots__ = ("tag", "counters")

    def __init__(self, tag: int, page_set_size: int) -> None:
        self.tag = tag
        self.counters = [0] * page_set_size


class HIRCache:
    """Set-associative page-walk-hit recorder.

    Parameters
    ----------
    geometry:
        Page-set geometry (defines tag/offset math and counter vector
        width).
    entries:
        Total number of lines (paper default 1024).
    associativity:
        Ways per set (paper default 8).
    """

    def __init__(
        self,
        geometry: PageSetGeometry,
        entries: int = 1024,
        associativity: int = 8,
    ) -> None:
        if entries <= 0 or associativity <= 0:
            raise ValueError("entries and associativity must be positive")
        if entries % associativity:
            raise ValueError("entries must be a multiple of associativity")
        num_sets = entries // associativity
        if not is_power_of_two(num_sets):
            raise ValueError("number of sets must be a power of two")
        self.geometry = geometry
        self.entries = entries
        self.associativity = associativity
        self.num_sets = num_sets
        self._set_mask = num_sets - 1
        self._sets: list[dict[int, _HIREntry]] = [dict() for _ in range(num_sets)]
        #: Tags in first-touch order since the last flush.
        self._touch_order: list[int] = []
        self.stats = HIRStats()

    @property
    def populated(self) -> int:
        """Number of currently touched entries."""
        return len(self._touch_order)

    def record_hit(self, page: int) -> bool:
        """Record one page-walk hit for ``page``.

        Returns ``False`` when the information was dropped because every
        way of the target set holds a different tag (way conflict).
        """
        self.stats.records += 1
        tag, offset = self.geometry.split(page)
        lines = self._sets[tag & self._set_mask]
        entry = lines.get(tag)
        if entry is None:
            if len(lines) >= self.associativity:
                self.stats.conflicts += 1
                return False
            entry = _HIREntry(tag, self.geometry.page_set_size)
            lines[tag] = entry
            self._touch_order.append(tag)
        counter = entry.counters[offset]
        if counter < COUNTER_MAX:
            entry.counters[offset] = counter + 1
        return True

    def transfer(self) -> list[tuple[int, list[int]]]:
        """Copy out touched entries in first-touch order, then flush.

        Returns a list of ``(tag, counters)`` pairs — the payload that
        travels to the GPU driver along with the evicted page.
        """
        payload: list[tuple[int, list[int]]] = []
        for tag in self._touch_order:
            entry = self._sets[tag & self._set_mask][tag]
            payload.append((tag, entry.counters))
        self.flush()
        if payload:
            self.stats.transfers += 1
            self.stats.entries_transferred += len(payload)
        else:
            self.stats.empty_transfers += 1
        return payload

    def flush(self) -> None:
        """Drop every recorded hit.

        Entries only exist in sets reached through ``_touch_order`` (they
        are created nowhere else), so clearing just those sets empties
        the cache without sweeping the full set array every interval.
        """
        sets = self._sets
        mask = self._set_mask
        for tag in self._touch_order:
            sets[tag & mask].clear()
        self._touch_order.clear()

    def transfer_bytes(self, populated_entries: int) -> int:
        """Bytes on the wire for ``populated_entries`` HIR lines."""
        return populated_entries * ENTRY_BYTES
