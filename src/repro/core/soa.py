"""Struct-of-arrays page set chain: HPE's chain (``HPEPolicy.chain``).

The object-per-page-set chain paid per fault for three ``OrderedDict``
partitions probed in sequence on every lookup, an ``O(middle)`` merge on
every interval advance, and a dict node per entry. :class:`ArrayChain`
is its flat replacement, and HPE's fault path calls it directly: the
three-partition recency chain realised as index-linked ``prev``/``next``
lists plus an interval *stamp* per slot. The partition of a slot is
**derived** (``intervals - stamp``), so advancing the interval is an
O(1) pointer splice instead of an ``OrderedDict.update`` over the whole
middle partition, and a lookup is one dict probe instead of up to three.
It also owns the MRU-C victim walk (:meth:`ArrayChain.mru_c_search`),
the one implementation every HPE search path calls.

The chain is **bit-identical** in observable behaviour to the object
implementation it replaces; ``tests/core/test_soa.py`` proves it with
seeded randomized op-sequence (metamorphic) equivalence runs against
the retained reference implementation
(:class:`repro.core.chain.ReferencePageSetChain`, which answers to the
same method names), and the MRU-C walk against the generator-based
search it replaced.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Partition indices of the three chain segments.
OLD, MIDDLE, NEW = 0, 1, 2


class ArrayChain:
    """Index-linked three-partition recency chain over arbitrary payloads.

    Slots live in flat ``prev``/``next`` Python lists (a list read is
    about a tenth of the cost of a numpy scalar read, and the chain is
    walked element by element).  Each of the three partitions (*old*,
    *middle*, *new*) is a doubly-linked list threaded through those
    lists with its own head/tail; a single ``key -> slot`` dict serves
    every lookup.

    The partition holding a slot is not stored — it is derived from the
    slot's interval *stamp*: a slot stamped in the current interval is
    *new*, one interval back is *middle*, anything older is *old*.
    :meth:`advance_interval` therefore only splices the middle list onto
    the old list (four pointer writes) and renames new to middle.

    Ordering semantics are exactly those of the three-``OrderedDict``
    reference implementation
    (:class:`repro.core.chain.ReferencePageSetChain`): inserts and
    promotions append at the MRU end of *new*; the splice preserves
    relative order old-then-middle.
    """

    __slots__ = (
        "_prev", "_next", "_stamp", "_payloads", "_keys", "_slot",
        "_free", "_heads", "_tails", "_counts", "intervals",
    )

    def __init__(self, initial_capacity: int = 16) -> None:
        capacity = max(1, initial_capacity)
        self._prev: List[int] = [-1] * capacity
        self._next: List[int] = [-1] * capacity
        self._stamp: List[int] = [0] * capacity
        self._payloads: List[Any] = [None] * capacity
        self._keys: List[Any] = [None] * capacity
        self._slot: Dict[Any, int] = {}
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        #: Head/tail slot of each partition list (-1 = empty).
        self._heads: List[int] = [-1, -1, -1]
        self._tails: List[int] = [-1, -1, -1]
        self._counts: List[int] = [0, 0, 0]
        #: Number of completed intervals (partition advances).
        self.intervals = 0

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._slot)

    def __contains__(self, key: Any) -> bool:
        return key in self._slot

    def get(self, key: Any) -> Optional[Any]:
        """Payload stored under ``key`` regardless of partition."""
        slot = self._slot.get(key)
        if slot is None:
            return None
        return self._payloads[slot]

    def partition_sizes(self) -> Tuple[int, int, int]:
        """``(old, middle, new)`` entry counts."""
        counts = self._counts
        return counts[OLD], counts[MIDDLE], counts[NEW]

    def _partition_of_slot(self, slot: int) -> int:
        delta = self.intervals - self._stamp[slot]
        if delta <= 0:
            return NEW
        if delta == 1:
            return MIDDLE
        return OLD

    # ------------------------------------------------------------------
    # Linked-list surgery
    # ------------------------------------------------------------------

    def _alloc(self, key: Any, payload: Any) -> int:
        free = self._free
        if not free:
            self._grow()
        slot = free.pop()
        self._payloads[slot] = payload
        self._keys[slot] = key
        self._slot[key] = slot
        return slot

    def _grow(self) -> None:
        old_capacity = len(self._payloads)
        new_capacity = old_capacity * 2
        self._prev.extend([-1] * old_capacity)
        self._next.extend([-1] * old_capacity)
        self._stamp.extend([0] * old_capacity)
        self._payloads.extend([None] * old_capacity)
        self._keys.extend([None] * old_capacity)
        self._free.extend(range(new_capacity - 1, old_capacity - 1, -1))

    def _link_tail(self, slot: int, partition: int) -> None:
        tail = self._tails[partition]
        self._prev[slot] = tail
        self._next[slot] = -1
        if tail >= 0:
            self._next[tail] = slot
        else:
            self._heads[partition] = slot
        self._tails[partition] = slot
        self._counts[partition] += 1

    def _unlink(self, slot: int, partition: int) -> None:
        prev_slot = self._prev[slot]
        next_slot = self._next[slot]
        if prev_slot >= 0:
            self._next[prev_slot] = next_slot
        else:
            self._heads[partition] = next_slot
        if next_slot >= 0:
            self._prev[next_slot] = prev_slot
        else:
            self._tails[partition] = prev_slot
        self._counts[partition] -= 1

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, key: Any, payload: Any) -> None:
        """Insert a brand-new entry at the MRU position of *new*."""
        if key in self._slot:
            raise ValueError(f"entry {key} is already in the chain")
        slot = self._alloc(key, payload)
        self._stamp[slot] = self.intervals
        self._link_tail(slot, NEW)

    def promote(self, key: Any) -> Any:
        """Move a touched entry to the MRU position of *new*.

        Entries already in *new* are left in place ("only one movement
        per interval").  Returns the payload; raises ``KeyError`` when
        absent.
        """
        slot = self._slot.get(key)
        if slot is None:
            raise KeyError(f"entry {key} is not in the chain")
        delta = self.intervals - self._stamp[slot]
        if delta <= 0:
            return self._payloads[slot]
        self._unlink(slot, MIDDLE if delta == 1 else OLD)
        self._stamp[slot] = self.intervals
        self._link_tail(slot, NEW)
        return self._payloads[slot]

    def remove(self, key: Any) -> Any:
        """Remove ``key`` from whichever partition holds it."""
        slot = self._slot.pop(key, None)
        if slot is None:
            raise KeyError(f"entry {key} is not in the chain")
        self._unlink(slot, self._partition_of_slot(slot))
        payload = self._payloads[slot]
        self._payloads[slot] = None
        self._keys[slot] = None
        self._free.append(slot)
        return payload

    def advance_interval(self) -> None:
        """Advance the partition pointers: P1 ← P2, P2 ← tail.

        O(1): the middle list is spliced onto the old list's tail (the
        reference semantics of ``old.update(middle)``), the new list
        becomes the middle list, and slot partitions re-derive from
        their stamps against the bumped interval counter.
        """
        heads = self._heads
        tails = self._tails
        middle_head = heads[MIDDLE]
        if middle_head >= 0:
            old_tail = tails[OLD]
            if old_tail >= 0:
                self._next[old_tail] = middle_head
                self._prev[middle_head] = old_tail
            else:
                heads[OLD] = middle_head
            tails[OLD] = tails[MIDDLE]
        heads[MIDDLE] = heads[NEW]
        tails[MIDDLE] = tails[NEW]
        heads[NEW] = -1
        tails[NEW] = -1
        counts = self._counts
        counts[OLD] += counts[MIDDLE]
        counts[MIDDLE] = counts[NEW]
        counts[NEW] = 0
        self.intervals += 1

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------

    def _iter_list(self, partition: int) -> Iterator[int]:
        slot = self._heads[partition]
        nxt = self._next
        while slot >= 0:
            yield slot
            slot = nxt[slot]

    def _iter_list_reversed(self, partition: int) -> Iterator[int]:
        slot = self._tails[partition]
        prev = self._prev
        while slot >= 0:
            yield slot
            slot = prev[slot]

    def iter_payloads_lru(self) -> Iterator[Any]:
        """All payloads, least recent first: old, then middle, then new."""
        payloads = self._payloads
        for partition in (OLD, MIDDLE, NEW):
            for slot in self._iter_list(partition):
                yield payloads[slot]

    def iter_partition(self, partition: int) -> Iterator[Any]:
        """Payloads of one partition, least recent first."""
        payloads = self._payloads
        for slot in self._iter_list(partition):
            yield payloads[slot]

    def iter_partition_reversed(self, partition: int) -> Iterator[Any]:
        """Payloads of one partition, most recent first."""
        payloads = self._payloads
        for slot in self._iter_list_reversed(partition):
            yield payloads[slot]

    def iter_partition_items(self, partition: int) -> Iterator[Tuple[Any, Any]]:
        """``(key, payload)`` pairs of one partition, least recent first."""
        keys = self._keys
        payloads = self._payloads
        for slot in self._iter_list(partition):
            yield keys[slot], payloads[slot]

    def first_payload(self) -> Optional[Any]:
        """The least-recent payload (old → middle → new priority).

        This is the LRU strategy's pick (one comparison when found).
        """
        payloads = self._payloads
        for partition in (OLD, MIDDLE, NEW):
            slot = self._heads[partition]
            if slot >= 0:
                return payloads[slot]
        return None

    # ------------------------------------------------------------------
    # Victim search
    # ------------------------------------------------------------------

    def mru_c_search(
        self, target: int, jump: int = 0
    ) -> Tuple[Optional[Any], int]:
        """The MRU-C walk over *old*: ``(payload, comparisons)``.

        Walks the old partition from its MRU end toward the head,
        skipping the first ``jump`` entries (a jump at or past the end
        saturates at the LRU end instead of wrapping), and returns the
        first payload whose ``counter`` equals ``target``, else the
        first minimum-counter payload met.  ``comparisons`` counts the
        entries examined after the skip (Fig. 14's search overhead).
        With *old* empty it falls back to :meth:`first_payload`
        (middle, then new), counted as one comparison when found.
        """
        old_count = self._counts[OLD]
        if not old_count:
            payload = self.first_payload()
            return payload, (0 if payload is None else 1)
        prev = self._prev
        payloads = self._payloads
        slot = self._tails[OLD]
        if jump > 0:
            for _ in range(jump if jump < old_count else old_count - 1):
                slot = prev[slot]
        best = payloads[slot]
        best_counter = best.counter
        if best_counter == target:
            return best, 1
        comparisons = 1
        slot = prev[slot]
        while slot >= 0:
            comparisons += 1
            payload = payloads[slot]
            counter = payload.counter
            if counter == target:
                return payload, comparisons
            if counter < best_counter:
                best = payload
                best_counter = counter
            slot = prev[slot]
        return best, comparisons
