"""Unit tests for the MRU-C and LRU page-set selection strategies.

Both walks live on the chain's array core: ``mru_c_search(target, jump)``
returns ``(entry, comparisons)`` and ``first_payload()`` is the LRU pick.
"""

from repro.core.chain import PageSetChain
from repro.core.pageset import PageSetEntry


def chain_with_old(counters, size=16):
    """Chain whose old partition holds entries with the given counters.

    Entries are inserted in order, so counters[0] is the LRU end and
    counters[-1] the MRU end of the old partition.
    """
    chain = PageSetChain(size)
    for tag, counter in enumerate(counters):
        entry = PageSetEntry(tag=tag, page_set_size=size)
        entry.touch(counter)
        chain.insert(entry)
    chain.advance_interval()
    chain.advance_interval()
    return chain


class TestSelectLRU:
    def test_empty_chain(self):
        chain = PageSetChain(16)
        assert chain.array.first_payload() is None
        assert chain.array.mru_c_search(16) == (None, 0)

    def test_picks_oldest(self):
        chain = chain_with_old([16, 16, 16])
        assert chain.array.first_payload().tag == 0


class TestSelectMRUC:
    def test_prefers_counter_equal_to_set_size(self):
        chain = chain_with_old([16, 40, 16, 40])
        entry, comparisons = chain.array.mru_c_search(16)
        # Scan from MRU (tag 3): 40 no, 16 yes -> tag 2.
        assert entry.tag == 2
        assert comparisons == 2

    def test_min_counter_fallback(self):
        chain = chain_with_old([40, 24, 32])
        entry, comparisons = chain.array.mru_c_search(16)
        assert entry.counter == 24
        assert comparisons == 3  # full scan

    def test_jump_skips_mru_entries(self):
        chain = chain_with_old([40, 16, 16])
        entry, _ = chain.array.mru_c_search(16, 1)
        # MRU is tag 2 (16) but jumped over; next qualifying is tag 1.
        assert entry.tag == 1

    def test_jump_saturates_at_lru_end(self):
        chain = chain_with_old([16, 16, 16])
        entry, _ = chain.array.mru_c_search(16, 99)
        assert entry.tag == 0  # LRU end, not wrapped to MRU

    def test_empty_old_falls_back_to_lru(self):
        chain = PageSetChain(16)
        entry = PageSetEntry(tag=9, page_set_size=16)
        chain.insert(entry)  # new partition only
        entry, comparisons = chain.array.mru_c_search(16)
        assert entry.tag == 9
        assert comparisons == 1

    def test_comparisons_count_skips_jumped(self):
        chain = chain_with_old([16, 16, 16, 16])
        _, comparisons = chain.array.mru_c_search(16, 2)
        assert comparisons == 1
