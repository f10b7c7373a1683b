"""Tests for the MSHR file."""

import pytest

from repro.memory.mshr import MshrFile


class TestMshr:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            MshrFile(0)

    def test_allocate_no_wait_when_free(self):
        m = MshrFile(2)
        assert m.allocate(cycle=0, completion_cycle=100) == 0
        assert m.allocate(cycle=0, completion_cycle=100) == 0

    def test_outstanding_counts_in_flight(self):
        m = MshrFile(4)
        m.allocate(0, 100)
        m.allocate(0, 200)
        assert m.outstanding(50) == 2

    def test_entries_drain_on_completion(self):
        m = MshrFile(4)
        m.allocate(0, 100)
        m.allocate(0, 200)
        assert m.outstanding(150) == 1
        assert m.outstanding(250) == 0

    def test_full_file_waits_for_earliest(self):
        m = MshrFile(1)
        m.allocate(0, 100)
        wait = m.allocate(10, 150)
        assert wait == 90  # waited until cycle 100

    def test_wait_delays_own_completion(self):
        """An entry that waited for a free slot completes that much later."""
        m = MshrFile(1)
        m.allocate(0, 100)
        m.allocate(10, 150)  # waits 90 cycles for the first entry
        assert m.outstanding(239) == 1
        assert m.outstanding(240) == 0

    def test_no_wait_after_completion(self):
        m = MshrFile(1)
        m.allocate(0, 100)
        assert m.allocate(200, 300) == 0

    def test_capacity_respected_under_pressure(self):
        m = MshrFile(2)
        waits = [m.allocate(0, 100 + 10 * i) for i in range(6)]
        assert waits[0] == 0 and waits[1] == 0
        assert all(w > 0 for w in waits[2:])
