"""Unit tests for the three-partition page set chain (``ArrayChain``)."""

import pytest

from repro.core.pageset import PageSetEntry, primary_key
from repro.core.soa import OLD, ArrayChain


def make_entry(tag, size=16):
    return PageSetEntry(tag=tag, page_set_size=size)


def add(chain, tag):
    entry = make_entry(tag)
    chain.insert(entry.key, entry)


class TestInsertLookup:
    def test_new_entries_land_in_new_partition(self):
        chain = ArrayChain()
        add(chain, 1)
        assert chain.partition_sizes() == (0, 0, 1)

    def test_duplicate_insert_rejected(self):
        chain = ArrayChain()
        add(chain, 1)
        with pytest.raises(ValueError):
            add(chain, 1)

    def test_get_finds_entry_in_any_partition(self):
        chain = ArrayChain()
        add(chain, 1)
        chain.advance_interval()
        assert chain.get(primary_key(1)) is not None
        chain.advance_interval()
        assert chain.get(primary_key(1)) is not None

    def test_get_missing_returns_none(self):
        assert ArrayChain().get(primary_key(9)) is None

    def test_len_counts_all_partitions(self):
        chain = ArrayChain()
        add(chain, 1)
        chain.advance_interval()
        add(chain, 2)
        chain.advance_interval()
        add(chain, 3)
        assert len(chain) == 3


class TestIntervalAdvance:
    def test_partitions_shift(self):
        chain = ArrayChain()
        add(chain, 1)
        chain.advance_interval()          # 1 -> middle
        add(chain, 2)
        assert chain.partition_sizes() == (0, 1, 1)
        chain.advance_interval()          # 1 -> old, 2 -> middle
        assert chain.partition_sizes() == (1, 1, 0)

    def test_interval_counter(self):
        chain = ArrayChain()
        chain.advance_interval()
        chain.advance_interval()
        assert chain.intervals == 2

    def test_old_accumulates(self):
        chain = ArrayChain()
        for tag in range(3):
            add(chain, tag)
            chain.advance_interval()
            chain.advance_interval()
        assert chain.partition_sizes()[OLD] == 3


class TestPromotion:
    def test_promote_from_old_to_new(self):
        chain = ArrayChain()
        add(chain, 1)
        chain.advance_interval()
        chain.advance_interval()
        assert chain.partition_sizes()[OLD] == 1
        chain.promote(primary_key(1))
        assert chain.partition_sizes() == (0, 0, 1)

    def test_promote_within_new_is_stable(self):
        # "within an interval, once a page set has been placed into the
        # new partition ... following touches will not trigger movement"
        chain = ArrayChain()
        add(chain, 1)
        add(chain, 2)
        chain.promote(primary_key(1))  # no-op: order preserved
        order = [e.tag for e in chain.iter_payloads_lru()]
        assert order == [1, 2]

    def test_promote_missing_raises(self):
        with pytest.raises(KeyError):
            ArrayChain().promote(primary_key(1))

    def test_promotion_order_becomes_recency_order(self):
        chain = ArrayChain()
        for tag in (1, 2, 3):
            add(chain, tag)
        chain.advance_interval()
        chain.promote(primary_key(2))
        chain.promote(primary_key(1))
        assert [e.tag for e in chain.iter_payloads_lru()] == [3, 2, 1]


class TestRemoval:
    def test_remove_from_any_partition(self):
        chain = ArrayChain()
        add(chain, 1)
        chain.advance_interval()
        removed = chain.remove(primary_key(1))
        assert removed.tag == 1
        assert len(chain) == 0

    def test_remove_missing_raises(self):
        with pytest.raises(KeyError):
            ArrayChain().remove(primary_key(1))


class TestIteration:
    def _loaded_chain(self):
        chain = ArrayChain()
        for tag in (1, 2):                 # oldest
            add(chain, tag)
        chain.advance_interval()
        chain.advance_interval()           # 1, 2 now old
        for tag in (3,):
            add(chain, tag)
        chain.advance_interval()           # 3 in middle
        add(chain, 4)                      # 4 in new
        return chain

    def test_lru_order(self):
        chain = self._loaded_chain()
        assert [e.tag for e in chain.iter_payloads_lru()] == [1, 2, 3, 4]

    def test_old_mru_first(self):
        chain = self._loaded_chain()
        assert [e.tag for e in chain.iter_partition_reversed(OLD)] == [2, 1]

    def test_old_lru_first(self):
        chain = self._loaded_chain()
        assert [e.tag for e in chain.iter_partition(OLD)] == [1, 2]

    def test_lru_entry_prefers_old(self):
        chain = self._loaded_chain()
        assert chain.first_payload().tag == 1

    def test_lru_entry_falls_through_partitions(self):
        chain = ArrayChain()
        add(chain, 7)
        chain.advance_interval()   # middle only
        assert chain.first_payload().tag == 7
        chain2 = ArrayChain()
        add(chain2, 8)
        assert chain2.first_payload().tag == 8  # new only

    def test_lru_entry_empty_chain(self):
        assert ArrayChain().first_payload() is None

    def test_counters_lists_every_entry(self):
        chain = self._loaded_chain()
        counters = [e.counter for e in chain.iter_payloads_lru()]
        assert counters == [0, 0, 0, 0]
