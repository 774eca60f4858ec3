"""The page set chain: three recency partitions over page-set entries.

Fig. 5 of the paper: the chain is ordered from head (least recent) to tail
(most recent) and split by two pointers into

* **old** partition — page sets not referenced in the last or current
  interval (head … P1);
* **middle** partition — page sets referenced in the last interval
  (P1 … P2);
* **new** partition — page sets referenced in the current interval
  (P2 … tail).

Since PR 9 the chain is realised as a struct-of-arrays index-linked
list (:class:`repro.core.soa.ArrayChain`): one ``key -> slot`` dict,
flat ``prev``/``next`` lists, and an interval stamp per slot from
which the partition is *derived*.  Advancing the interval
(P1 ← P2, P2 ← tail) is an O(1) pointer splice instead of an
``OrderedDict`` merge, and a lookup is one dict probe instead of up to
three.  The original three-``OrderedDict`` implementation is retained
below as :class:`ReferencePageSetChain` — the oracle for the seeded
metamorphic equivalence tests in ``tests/core/test_soa.py``.

Update rules (Fig. 6 and its notes):

* a touched entry in *old*/*middle* moves to the MRU position of *new*;
* an entry already in *new* is **not** moved again this interval;
* new entries are inserted at the MRU position of *new*;
* a page set whose pages have all been evicted leaves the chain.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Optional

from repro.core.pageset import PageSetEntry, SetPart
from repro.core.soa import MIDDLE, NEW, OLD, ArrayChain

SetKey = tuple[int, SetPart]


class PageSetChain:
    """Three-partition recency chain over :class:`PageSetEntry` objects."""

    def __init__(self, page_set_size: int) -> None:
        if page_set_size <= 0:
            raise ValueError(
                f"page_set_size must be positive, got {page_set_size}"
            )
        self.page_set_size = page_set_size
        self._chain = ArrayChain()

    @property
    def array(self) -> ArrayChain:
        """The backing :class:`ArrayChain`, keyed by :data:`SetKey`.

        HPE's per-fault path calls it directly, so each chain operation
        there is one method call rather than two.
        """
        return self._chain

    @property
    def intervals(self) -> int:
        """Number of completed intervals (partition advances)."""
        return self._chain.intervals

    @intervals.setter
    def intervals(self, value: int) -> None:
        self._chain.intervals = value

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, key: SetKey) -> Optional[PageSetEntry]:
        """Return the entry for ``key`` regardless of partition."""
        entry: Optional[PageSetEntry] = self._chain.get(key)
        return entry

    def __contains__(self, key: SetKey) -> bool:
        return key in self._chain

    def __len__(self) -> int:
        return len(self._chain)

    @property
    def old_size(self) -> int:
        """Number of entries in the old partition."""
        return self._chain.partition_sizes()[0]

    @property
    def middle_size(self) -> int:
        """Number of entries in the middle partition."""
        return self._chain.partition_sizes()[1]

    @property
    def new_size(self) -> int:
        """Number of entries in the new partition."""
        return self._chain.partition_sizes()[2]

    def partition_sizes(self) -> tuple[int, int, int]:
        """``(old, middle, new)`` sizes — one observability snapshot."""
        return self._chain.partition_sizes()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, entry: PageSetEntry) -> None:
        """Insert a brand-new entry at the MRU position of *new*."""
        self._chain.insert(entry.key, entry)

    def promote(self, key: SetKey) -> PageSetEntry:
        """Move a touched entry to the MRU position of *new*.

        Entries already in *new* are left in place, implementing the
        "only one movement per interval" rule.
        """
        entry: PageSetEntry = self._chain.promote(key)
        return entry

    def remove(self, key: SetKey) -> PageSetEntry:
        """Remove ``key`` from whichever partition holds it."""
        entry: PageSetEntry = self._chain.remove(key)
        return entry

    def advance_interval(self) -> None:
        """Advance the partition pointers: P1 ← P2, P2 ← tail."""
        self._chain.advance_interval()

    # ------------------------------------------------------------------
    # Iteration (for strategies and classification)
    # ------------------------------------------------------------------

    def iter_old_mru_first(self) -> Iterator[PageSetEntry]:
        """Old-partition entries from the MRU end toward the head."""
        return self._chain.iter_partition_reversed(OLD)

    def iter_old_lru_first(self) -> Iterator[PageSetEntry]:
        """Old-partition entries from the head (LRU end) toward P1."""
        return self._chain.iter_partition(OLD)

    def iter_lru_order(self) -> Iterator[PageSetEntry]:
        """All entries, least recent first: old, then middle, then new."""
        return self._chain.iter_payloads_lru()

    def iter_entries(self) -> Iterator[PageSetEntry]:
        """All entries in chain order (same as :meth:`iter_lru_order`)."""
        return self.iter_lru_order()

    def partition_items(
        self, partition: int
    ) -> Iterator[tuple[SetKey, PageSetEntry]]:
        """``(key, entry)`` pairs of one partition, least recent first.

        ``partition`` is one of :data:`repro.core.soa.OLD` /
        :data:`~repro.core.soa.MIDDLE` / :data:`~repro.core.soa.NEW`.
        The invariant sanitizer walks these instead of reaching into
        private partition dicts.
        """
        if partition not in (OLD, MIDDLE, NEW):
            raise ValueError(f"unknown partition index {partition}")
        return self._chain.iter_partition_items(partition)

    def lru_entry(self) -> Optional[PageSetEntry]:
        """The least-recent entry, honouring old → middle → new priority."""
        entry: Optional[PageSetEntry] = self._chain.first_payload()
        return entry

    def counters(self) -> list[int]:
        """Every entry's saturating counter (for classification)."""
        return [entry.counter for entry in self.iter_entries()]


class ReferencePageSetChain:
    """The pre-SoA three-``OrderedDict`` chain, kept as a test oracle.

    Behaviourally identical to :class:`PageSetChain`; the seeded
    metamorphic suite in ``tests/core/test_soa.py`` drives randomized
    op sequences through both and asserts every observable agrees.
    Production code must use :class:`PageSetChain`.
    """

    def __init__(self, page_set_size: int) -> None:
        if page_set_size <= 0:
            raise ValueError(
                f"page_set_size must be positive, got {page_set_size}"
            )
        self.page_set_size = page_set_size
        self._old: OrderedDict[SetKey, PageSetEntry] = OrderedDict()
        self._middle: OrderedDict[SetKey, PageSetEntry] = OrderedDict()
        self._new: OrderedDict[SetKey, PageSetEntry] = OrderedDict()
        #: Number of completed intervals (partition advances).
        self.intervals = 0

    def get(self, key: SetKey) -> Optional[PageSetEntry]:
        """Return the entry for ``key`` regardless of partition."""
        for partition in (self._new, self._middle, self._old):
            entry = partition.get(key)
            if entry is not None:
                return entry
        return None

    def __contains__(self, key: SetKey) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return len(self._old) + len(self._middle) + len(self._new)

    def partition_sizes(self) -> tuple[int, int, int]:
        """``(old, middle, new)`` sizes."""
        return len(self._old), len(self._middle), len(self._new)

    @property
    def old_size(self) -> int:
        """Number of entries in the old partition."""
        return len(self._old)

    @property
    def middle_size(self) -> int:
        """Number of entries in the middle partition."""
        return len(self._middle)

    @property
    def new_size(self) -> int:
        """Number of entries in the new partition."""
        return len(self._new)

    def insert(self, entry: PageSetEntry) -> None:
        """Insert a brand-new entry at the MRU position of *new*."""
        key = entry.key
        if key in self:
            raise ValueError(f"entry {key} is already in the chain")
        self._new[key] = entry

    def promote(self, key: SetKey) -> PageSetEntry:
        """Move a touched entry to the MRU position of *new*."""
        entry = self._new.get(key)
        if entry is not None:
            return entry
        for partition in (self._middle, self._old):
            entry = partition.pop(key, None)
            if entry is not None:
                self._new[key] = entry
                return entry
        raise KeyError(f"entry {key} is not in the chain")

    def remove(self, key: SetKey) -> PageSetEntry:
        """Remove ``key`` from whichever partition holds it."""
        for partition in (self._new, self._middle, self._old):
            entry = partition.pop(key, None)
            if entry is not None:
                return entry
        raise KeyError(f"entry {key} is not in the chain")

    def advance_interval(self) -> None:
        """Advance the partition pointers: P1 ← P2, P2 ← tail."""
        self._old.update(self._middle)
        self._middle = self._new
        self._new = OrderedDict()
        self.intervals += 1

    def iter_old_mru_first(self) -> Iterator[PageSetEntry]:
        """Old-partition entries from the MRU end toward the head."""
        for key in reversed(self._old):
            yield self._old[key]

    def iter_old_lru_first(self) -> Iterator[PageSetEntry]:
        """Old-partition entries from the head (LRU end) toward P1."""
        return iter(self._old.values())

    def iter_lru_order(self) -> Iterator[PageSetEntry]:
        """All entries, least recent first: old, then middle, then new."""
        for partition in (self._old, self._middle, self._new):
            yield from partition.values()

    def iter_entries(self) -> Iterator[PageSetEntry]:
        """All entries in chain order (same as :meth:`iter_lru_order`)."""
        return self.iter_lru_order()

    def partition_items(
        self, partition: int
    ) -> Iterator[tuple[SetKey, PageSetEntry]]:
        """``(key, entry)`` pairs of one partition, least recent first."""
        mapping = (self._old, self._middle, self._new)[partition]
        return iter(mapping.items())

    def lru_entry(self) -> Optional[PageSetEntry]:
        """The least-recent entry, honouring old → middle → new priority."""
        for partition in (self._old, self._middle, self._new):
            for entry in partition.values():
                return entry
        return None

    def counters(self) -> list[int]:
        """Every entry's saturating counter (for classification)."""
        return [entry.counter for entry in self.iter_entries()]
