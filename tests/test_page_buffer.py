"""Tests for the DSPatch Page Buffer."""

import pytest

from repro.core.page_buffer import PageBuffer, PageBufferEntry


class TestEntry:
    def test_record_sets_bit(self):
        e = PageBufferEntry(0x10)
        e.record(5)
        e.record(63)
        assert e.pattern == (1 << 5) | (1 << 63)

    def test_record_rejects_out_of_range(self):
        e = PageBufferEntry(0x10)
        with pytest.raises(ValueError):
            e.record(64)
        with pytest.raises(ValueError):
            e.record(-1)

    def test_first_trigger_sticks(self):
        e = PageBufferEntry(0x10)
        assert e.set_trigger(0, 0xAA, 3)
        assert not e.set_trigger(0, 0xBB, 7)
        assert e.triggers[0] == (0xAA, 3)

    def test_segments_have_independent_triggers(self):
        e = PageBufferEntry(0x10)
        e.set_trigger(0, 0xAA, 3)
        e.set_trigger(1, 0xBB, 40)
        assert e.triggers == [(0xAA, 3), (0xBB, 40)]


class TestBuffer:
    def test_insert_and_get(self):
        pb = PageBuffer(entries=4)
        entry, evicted = pb.insert(0x10)
        assert evicted is None
        assert pb.get(0x10) is entry

    def test_get_missing_returns_none(self):
        pb = PageBuffer(entries=4)
        assert pb.get(0x99) is None

    def test_duplicate_insert_rejected(self):
        pb = PageBuffer(entries=4)
        pb.insert(0x10)
        with pytest.raises(ValueError):
            pb.insert(0x10)

    def test_lru_eviction_order(self):
        pb = PageBuffer(entries=2)
        pb.insert(0x1)
        pb.insert(0x2)
        _, evicted = pb.insert(0x3)
        assert evicted.page == 0x1

    def test_get_refreshes_lru(self):
        pb = PageBuffer(entries=2)
        pb.insert(0x1)
        pb.insert(0x2)
        pb.get(0x1)  # 0x2 becomes oldest
        _, evicted = pb.insert(0x3)
        assert evicted.page == 0x2

    def test_capacity_never_exceeded(self):
        pb = PageBuffer(entries=8)
        for page in range(100):
            if pb.get(page) is None:
                pb.insert(page)
        assert len(pb) <= 8

    def test_each_insert_past_capacity_evicts_one_page(self):
        pb = PageBuffer(entries=2)
        evicted = [pb.insert(page)[1] for page in range(5)]
        assert [e.page for e in evicted if e is not None] == [0, 1, 2]
        assert len(pb) == 2

    def test_contains(self):
        pb = PageBuffer(entries=4)
        pb.insert(0x5)
        assert 0x5 in pb
        assert 0x6 not in pb

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            PageBuffer(entries=0)

    def test_storage_matches_table1(self):
        assert PageBuffer(entries=64).storage_bits() == 64 * 158 == 10112
