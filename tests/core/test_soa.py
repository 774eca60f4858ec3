"""Metamorphic equivalence for the struct-of-arrays page set chain.

:class:`repro.core.soa.ArrayChain` (HPE's chain) replaced the
object-per-entry chain on the fault path; the original is retained as
the oracle (:class:`ReferencePageSetChain`, under the same method
names).  These tests drive long
seeded randomized op sequences through both implementations in
lockstep — no hypothesis dependency, just ``random.Random(seed)`` —
and assert every observable agrees after every single operation:
membership, sizes, partition split, full iteration order, and the LRU
election the HPE strategies depend on.

The MRU-C victim walk (:meth:`ArrayChain.mru_c_search`) replaced a
generator-based search over the old partition, MRU end first; that
search is kept
here as :func:`reference_mru_c`, and the walk is run against it in
lockstep.
"""

from __future__ import annotations

import random
from typing import Optional, Union

import pytest

from repro.core.chain import ReferencePageSetChain
from repro.core.pageset import PageSetEntry, SetPart
from repro.core.soa import MIDDLE, NEW, OLD, ArrayChain

SEEDS = (1, 7, 42, 1337, 271828)
OPS_PER_RUN = 3000

ChainLike = Union[ArrayChain, ReferencePageSetChain]
PARTITIONS = (OLD, MIDDLE, NEW)


def _observe(chain: ChainLike) -> tuple:
    """Every observable surface of a chain, in one comparable tuple."""
    first = chain.first_payload()
    return (
        len(chain),
        chain.partition_sizes(),
        [entry.key for entry in chain.iter_payloads_lru()],
        [[entry.key for entry in chain.iter_partition(part)]
         for part in PARTITIONS],
        [[entry.key for entry in chain.iter_partition_reversed(part)]
         for part in PARTITIONS],
        [(key, entry.tag) for part in PARTITIONS
         for key, entry in chain.iter_partition_items(part)],
        None if first is None else first.key,
        [entry.counter for entry in chain.iter_payloads_lru()],
        chain.intervals,
    )


def _random_key(rng: random.Random) -> tuple[int, SetPart]:
    part = SetPart.PRIMARY if rng.random() < 0.8 else SetPart.SECONDARY
    return (rng.randrange(64), part)


@pytest.mark.parametrize("seed", SEEDS)
def test_chain_matches_reference_on_random_op_sequences(seed: int) -> None:
    """SoA chain == OrderedDict chain after every op of a seeded run."""
    rng = random.Random(seed)
    fast = ArrayChain()
    reference = ReferencePageSetChain()
    for step in range(OPS_PER_RUN):
        op = rng.random()
        key = _random_key(rng)
        if op < 0.40:  # insert (fresh entries only; dup insert is an error)
            if key not in reference:
                entry_a = PageSetEntry(tag=key[0], page_set_size=16,
                                       part=key[1])
                entry_b = PageSetEntry(tag=key[0], page_set_size=16,
                                       part=key[1])
                touches = rng.randrange(4)
                entry_a.touch(touches)
                entry_b.touch(touches)
                fast.insert(key, entry_a)
                reference.insert(key, entry_b)
        elif op < 0.70:  # promote
            if key in reference:
                assert fast.promote(key).key == reference.promote(key).key
            else:
                with pytest.raises(KeyError):
                    reference.promote(key)
                with pytest.raises(KeyError):
                    fast.promote(key)
        elif op < 0.85:  # remove
            if key in reference:
                assert fast.remove(key).key == reference.remove(key).key
            else:
                with pytest.raises(KeyError):
                    reference.remove(key)
                with pytest.raises(KeyError):
                    fast.remove(key)
        elif op < 0.92:  # touch through get() (payload identity check)
            entry_fast = fast.get(key)
            entry_ref = reference.get(key)
            assert (entry_fast is None) == (entry_ref is None)
            if entry_fast is not None and entry_ref is not None:
                entry_fast.touch()
                entry_ref.touch()
        else:  # advance interval
            fast.advance_interval()
            reference.advance_interval()
        assert _observe(fast) == _observe(reference), \
            f"divergence at step {step} (seed {seed})"


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_chain_survives_churn_and_regrowth(seed: int) -> None:
    """Free-list reuse: empty the chain repeatedly, slots must recycle."""
    rng = random.Random(seed)
    fast = ArrayChain()
    reference = ReferencePageSetChain()
    for _ in range(20):
        keys = [(tag, SetPart.PRIMARY) for tag in range(rng.randrange(1, 40))]
        for key in keys:
            tag, part = key
            fast.insert(key, PageSetEntry(tag=tag, page_set_size=8, part=part))
            reference.insert(
                key, PageSetEntry(tag=tag, page_set_size=8, part=part)
            )
        if rng.random() < 0.5:
            fast.advance_interval()
            reference.advance_interval()
        rng.shuffle(keys)
        for key in keys:
            assert fast.remove(key).key == reference.remove(key).key
        assert _observe(fast) == _observe(reference)
        assert len(fast) == 0


def test_duplicate_insert_raises_on_both() -> None:
    fast = ArrayChain()
    reference = ReferencePageSetChain()
    key = (3, SetPart.PRIMARY)
    for chain in (fast, reference):
        chain.insert(key, PageSetEntry(tag=3, page_set_size=4))
        with pytest.raises(ValueError):
            chain.insert(key, PageSetEntry(tag=3, page_set_size=4))


def test_promote_only_moves_once_per_interval() -> None:
    """Fig. 6 rule: an entry already in *new* stays put when touched."""
    chains: tuple[ChainLike, ...] = (ArrayChain(), ReferencePageSetChain())
    for chain in chains:
        for tag in (1, 2, 3):
            entry = PageSetEntry(tag=tag, page_set_size=4)
            chain.insert(entry.key, entry)
        order_before = [entry.key for entry in chain.iter_payloads_lru()]
        chain.promote((1, SetPart.PRIMARY))  # already in new: no move
        assert [e.key for e in chain.iter_payloads_lru()] == order_before
        chain.advance_interval()
        chain.promote((1, SetPart.PRIMARY))  # from middle: to MRU of new
        assert [e.key for e in chain.iter_payloads_lru()][-1] == \
            (1, SetPart.PRIMARY)


# -- The MRU-C walk vs the generator-based search --------------------------

#: Counter the walk looks for (the page-set size in HPE).
TARGET = 4


def reference_mru_c(
    chain: ChainLike, target: int, jump: int = 0
) -> tuple[Optional[PageSetEntry], int]:
    """The generator-based MRU-C search the chain walk replaced."""
    old_size = chain.partition_sizes()[OLD]
    if old_size == 0:
        entry = chain.first_payload()
        return entry, 1 if entry else 0
    effective_jump = min(jump, old_size - 1)
    comparisons = 0
    best: Optional[PageSetEntry] = None
    for index, entry in enumerate(chain.iter_partition_reversed(OLD)):
        if index < effective_jump:
            continue
        comparisons += 1
        if entry.counter == target:
            return entry, comparisons
        if best is None or entry.counter < best.counter:
            best = entry
    return best, comparisons


def _picked(result: tuple[Optional[PageSetEntry], int]) -> tuple:
    entry, comparisons = result
    return (None if entry is None else entry.key), comparisons


def _jumps(rng: random.Random, old_size: int) -> set[int]:
    """Jumps inside, at, and past the old partition's end."""
    return {0, 1, rng.randrange(8), max(0, old_size - 1), old_size,
            old_size + 1, old_size + 5}


@pytest.mark.parametrize("seed", SEEDS)
def test_mru_c_walk_matches_reference_search(seed: int) -> None:
    """Walk == generator search (and LRU pick == reference) every op."""
    rng = random.Random(seed)
    fast = ArrayChain()
    reference = ReferencePageSetChain()
    seen = {"empty_old": 0, "jump_at_or_past_end": 0, "tie": 0,
            "advance_then_pick": 0, "target_hit": 0}
    advanced = False
    for step in range(OPS_PER_RUN):
        op = rng.random()
        key = (rng.randrange(48), SetPart.PRIMARY)
        if op < 0.35:
            if key not in reference:
                # Small counters: ties on the minimum are common, and
                # about one entry in five carries the target.
                counter = rng.choice((0, 1, 1, 2, 3, TARGET))
                for chain in (fast, reference):
                    entry = PageSetEntry(tag=key[0], page_set_size=TARGET)
                    entry.touch(counter)
                    chain.insert(key, entry)
        elif op < 0.60:
            if key in reference:
                fast.promote(key)
                reference.promote(key)
        elif op < 0.75:
            if key in reference:
                fast.remove(key)
                reference.remove(key)
        elif op < 0.82:
            entry_fast = fast.get(key)
            entry_ref = reference.get(key)
            if entry_fast is not None and entry_ref is not None:
                entry_fast.touch()
                entry_ref.touch()
        else:
            fast.advance_interval()
            reference.advance_interval()
            advanced = True
            continue
        old_size = fast.partition_sizes()[OLD]
        seen["empty_old"] += old_size == 0
        seen["advance_then_pick"] += advanced
        advanced = False
        for jump in _jumps(rng, old_size):
            want = _picked(reference_mru_c(reference, TARGET, jump))
            picked = fast.mru_c_search(TARGET, jump)
            assert _picked(picked) == want, \
                f"walk diverged at step {step}, jump {jump} (seed {seed})"
            assert _picked(reference_mru_c(fast, TARGET, jump)) == want
            if old_size and jump >= old_size - 1:
                seen["jump_at_or_past_end"] += 1
            entry = picked[0]
            if entry is not None and old_size:
                if entry.counter == TARGET:
                    seen["target_hit"] += 1
                elif sum(e.counter == entry.counter
                         for e in fast.iter_partition(OLD)) > 1:
                    seen["tie"] += 1
        lru = fast.first_payload()
        want_lru = reference.first_payload()
        assert (None if lru is None else lru.key) == \
            (None if want_lru is None else want_lru.key)
    assert all(seen.values()), seen


def test_mru_c_walk_edges() -> None:
    """Hand-built cases: ties, jumps at/past the end, empty partitions."""
    chain = ArrayChain()

    def pick(jump: int) -> tuple[Optional[int], int]:
        """``(tag, comparisons)`` of the walk's pick."""
        entry, comparisons = chain.mru_c_search(TARGET, jump)
        return (None if entry is None else entry.tag), comparisons

    assert pick(0) == (None, 0)
    assert pick(7) == (None, 0)
    for tag, counter in enumerate((5, 3, 7, 3)):
        entry = PageSetEntry(tag=tag, page_set_size=TARGET)
        entry.touch(counter)
        chain.insert(entry.key, entry)
    # Old partition empty: LRU of middle/new, one comparison.
    assert pick(0) == (0, 1)
    chain.advance_interval()
    assert pick(2) == (0, 1)
    chain.advance_interval()
    # Tie on the minimum (3): the first met from the MRU end wins.
    assert pick(0) == (3, 4)
    assert pick(1) == (1, 3)
    # A jump at or past the end saturates at the LRU end, never wraps.
    for jump in (3, 4, 99):
        assert pick(jump) == (0, 1)
    # A counter equal to the target stops the walk.
    chain.get((2, SetPart.PRIMARY)).counter = TARGET
    assert pick(0) == (2, 2)
    # An interval advance between picks splices middle onto old's MRU end.
    fresh = PageSetEntry(tag=9, page_set_size=TARGET)
    fresh.touch(1)
    chain.insert(fresh.key, fresh)
    chain.advance_interval()
    assert pick(0) == (2, 2)
    chain.advance_interval()
    assert pick(0) == (2, 3)
    assert pick(3) == (1, 2)

