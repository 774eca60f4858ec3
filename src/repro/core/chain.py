"""The page set chain: three recency partitions over page-set entries.

Fig. 5 of the paper: the chain is ordered from head (least recent) to tail
(most recent) and split by two pointers into

* **old** partition — page sets not referenced in the last or current
  interval (head … P1);
* **middle** partition — page sets referenced in the last interval
  (P1 … P2);
* **new** partition — page sets referenced in the current interval
  (P2 … tail).

HPE's chain is :class:`repro.core.soa.ArrayChain` (``HPEPolicy.chain``):
a struct-of-arrays index-linked list with one ``key -> slot`` dict, flat
``prev``/``next`` lists, and an interval stamp per slot from which the
partition is *derived*.  Advancing the interval (P1 ← P2, P2 ← tail) is
an O(1) pointer splice instead of an ``OrderedDict`` merge, and a lookup
is one dict probe instead of up to three.  The original
three-``OrderedDict`` implementation is kept here as
:class:`ReferencePageSetChain`, under :class:`ArrayChain`'s method
names — the oracle for the seeded metamorphic equivalence tests in
``tests/core/test_soa.py``.

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

SetKey = tuple[int, SetPart]


class ReferencePageSetChain:
    """The pre-SoA three-``OrderedDict`` chain, kept as a test oracle.

    Behaviourally identical to :class:`repro.core.soa.ArrayChain` and
    called by the same method names; the seeded metamorphic suite in
    ``tests/core/test_soa.py`` drives randomized op sequences through
    both and asserts every observable agrees.  Production code uses
    :class:`~repro.core.soa.ArrayChain`.
    """

    def __init__(self) -> None:
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

    def insert(self, key: SetKey, entry: PageSetEntry) -> None:
        """Insert a brand-new entry at the MRU position of *new*."""
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

    def iter_payloads_lru(self) -> Iterator[PageSetEntry]:
        """All entries, least recent first: old, then middle, then new."""
        for partition in (self._old, self._middle, self._new):
            yield from partition.values()

    def iter_partition(self, partition: int) -> Iterator[PageSetEntry]:
        """Entries of one partition, least recent first."""
        return iter((self._old, self._middle, self._new)[partition].values())

    def iter_partition_reversed(
        self, partition: int
    ) -> Iterator[PageSetEntry]:
        """Entries of one partition, most recent first."""
        mapping = (self._old, self._middle, self._new)[partition]
        for key in reversed(mapping):
            yield mapping[key]

    def iter_partition_items(
        self, partition: int
    ) -> Iterator[tuple[SetKey, PageSetEntry]]:
        """``(key, entry)`` pairs of one partition, least recent first."""
        mapping = (self._old, self._middle, self._new)[partition]
        return iter(mapping.items())

    def first_payload(self) -> Optional[PageSetEntry]:
        """The least-recent entry, honouring old → middle → new priority."""
        for partition in (self._old, self._middle, self._new):
            for entry in partition.values():
                return entry
        return None
