"""Struct-of-arrays backing stores for the hot simulation state.

PR 5's profile (DESIGN.md §9.4) showed the per-fault cost of the
object-per-page-set chain: three ``OrderedDict`` partitions probed in
sequence on every lookup, an ``O(middle)`` merge on every interval
advance, and a dict node per entry.  This module provides the flat
replacements behind the existing interfaces:

:class:`ArrayChain`
    The three-partition recency chain realised as index-linked
    ``prev``/``next`` lists plus an interval *stamp* per slot.  The
    partition of a slot is **derived** (``intervals - stamp``), so
    advancing the interval is an O(1) pointer splice instead of an
    ``OrderedDict.update`` over the whole middle partition, and a
    lookup is one dict probe instead of up to three.  It also owns the
    MRU-C victim walk (:meth:`ArrayChain.mru_c_search`), the one
    implementation every HPE search path calls.

:class:`Bitmap`
    A set of non-negative ints backed by a flat boolean array (one byte
    per page instead of a hash-set entry), with a plain-``set``
    fallback when numpy is unavailable or the universe is too sparse.

Both structures are **bit-identical** in observable behaviour to the
object implementations they replace; ``tests/core/test_soa.py`` proves
it with seeded randomized op-sequence (metamorphic) equivalence runs
against the retained reference implementations (and the MRU-C walk
against the generator-based search it replaced).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

try:  # numpy is optional at runtime (test extra); fall back, don't require.
    import numpy as np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    np = None  # type: ignore[assignment]

#: Partition indices of the three chain segments.
OLD, MIDDLE, NEW = 0, 1, 2

#: Above this element index a :class:`Bitmap` abandons the dense array
#: and degrades to plain-``set`` semantics (a sparse universe would
#: otherwise allocate one byte per *possible* element).
DENSE_LIMIT = 1 << 24


def numpy_available() -> bool:
    """``True`` when :class:`Bitmap` can use its dense array backing."""
    return np is not None


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
    reference implementation (:class:`repro.core.chain.ReferenceChain`):
    inserts and promotions append at the MRU end of *new*; the splice
    preserves relative order old-then-middle.
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


class Bitmap:
    """Set of non-negative ints over a flat boolean array.

    Drop-in for the ``set[int]`` operations the driver and the batch
    kernels use (``in``, ``add``, ``discard``, ``update``,
    ``isdisjoint``) at one byte per element of the (dense) universe.
    Elements at or above :data:`DENSE_LIMIT` — or every element when
    numpy is missing — switch the instance to an exact plain-``set``
    fallback, so behaviour never depends on the backing.
    """

    __slots__ = ("_bits", "_fallback")

    def __init__(self, initial_size: int = 1024) -> None:
        if np is not None:
            self._bits: Optional[Any] = np.zeros(
                max(1, initial_size), dtype=bool
            )
            self._fallback: Optional[set] = None
        else:  # pragma: no cover - numpy-free fallback
            self._bits = None
            self._fallback = set()

    def _degrade(self) -> set:
        """Switch to plain-set semantics (sparse/huge universe)."""
        bits = self._bits
        assert bits is not None and np is not None
        self._fallback = set(np.flatnonzero(bits).tolist())
        self._bits = None
        return self._fallback

    def _ensure(self, element: int) -> Any:
        """Grow the dense array to cover ``element``; may degrade."""
        bits = self._bits
        assert bits is not None and np is not None
        if element >= DENSE_LIMIT:
            return None
        size = bits.shape[0]
        new_size = size * 2
        while new_size <= element:
            new_size *= 2
        grown = np.zeros(new_size, dtype=bool)
        grown[:size] = bits
        self._bits = grown
        return grown

    def __contains__(self, element: int) -> bool:
        fallback = self._fallback
        if fallback is not None:
            return element in fallback
        bits = self._bits
        return 0 <= element < bits.shape[0] and bool(bits[element])

    def __len__(self) -> int:
        fallback = self._fallback
        if fallback is not None:
            return len(fallback)
        return int(self._bits.sum())

    def __iter__(self) -> Iterator[int]:
        fallback = self._fallback
        if fallback is not None:
            return iter(fallback)
        assert np is not None
        return iter(np.flatnonzero(self._bits).tolist())

    def add(self, element: int) -> None:
        if element < 0:
            # A negative element would wrap to the array tail under
            # numpy indexing and silently corrupt membership.
            raise ValueError(f"Bitmap elements must be >= 0, got {element}")
        fallback = self._fallback
        if fallback is not None:
            fallback.add(element)
            return
        bits = self._bits
        if element >= bits.shape[0]:
            bits = self._ensure(element)
            if bits is None:
                self._degrade().add(element)
                return
        bits[element] = True

    def discard(self, element: int) -> None:
        fallback = self._fallback
        if fallback is not None:
            fallback.discard(element)
            return
        bits = self._bits
        if 0 <= element < bits.shape[0]:
            bits[element] = False

    def update(self, elements: Iterable[int]) -> None:
        fallback = self._fallback
        if fallback is not None:
            fallback.update(elements)
            return
        assert np is not None
        arr = np.asarray(
            elements if isinstance(elements, (list, tuple)) else list(elements),
            dtype=np.int64,
        )
        if arr.size == 0:
            return
        if int(arr.min()) < 0:
            raise ValueError("Bitmap elements must be >= 0")
        top = int(arr.max())
        bits = self._bits
        if top >= bits.shape[0]:
            bits = self._ensure(top)
            if bits is None:
                self._degrade().update(arr.tolist())
                return
        bits[arr] = True

    def isdisjoint(self, elements: Iterable[int]) -> bool:
        fallback = self._fallback
        if fallback is not None:
            return fallback.isdisjoint(elements)
        assert np is not None
        arr = np.asarray(
            elements if isinstance(elements, (list, tuple)) else list(elements),
            dtype=np.int64,
        )
        if arr.size == 0:
            return True
        bits = self._bits
        in_range = arr[arr < bits.shape[0]]
        if in_range.size == 0:
            return True
        return not bool(bits[in_range].any())

    def dense_view(self) -> Optional[Any]:
        """The backing boolean array, or ``None`` in fallback mode.

        Vector consumers (the v3 kernel's residency classification) index
        this directly; mutating it mutates the bitmap.
        """
        return self._bits
