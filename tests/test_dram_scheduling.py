"""Tests for demand-first DRAM scheduling and merge promotion.

These behaviours are what keep the simulator's prefetcher comparisons
fair: a prefetch-heavy scheme must pay for bandwidth pressure through
*its own* fill latency, not by unboundedly delaying demand requests
(real FR-FCFS controllers prioritize demands).
"""

import pytest

from repro.memory.dram import DramConfig, DramModel


def fresh():
    return DramModel(DramConfig(speed_grade=2133, channels=1))


class TestDemandPreemption:
    def test_demand_latency_bounded_under_prefetch_flood(self):
        """A demand arriving behind a large prefetch backlog pays at most
        the bounded preemption wait, not the whole queue."""
        dram = fresh()
        # Flood one channel with prefetches to distinct rows (all ACTs).
        for i in range(200):
            dram.access(0, i * 64, is_prefetch=True)
        clean = fresh().access(0, 10**6 * 64)
        flooded = dram.access(0, 10**6 * 64)
        bound = (
            clean
            + dram.DEMAND_MAX_PREEMPT_WAIT_ACTS * dram.tRC
            + dram.DEMAND_MAX_PREEMPT_WAIT_BURSTS * dram.burst
        )
        assert flooded <= bound

    def test_prefetch_pays_its_own_backlog(self):
        """Prefetches queue behind each other: the Nth prefetch's latency
        grows with the backlog."""
        dram = fresh()
        first = dram.access(0, 0, is_prefetch=True)
        for i in range(1, 63):
            dram.access(0, i, is_prefetch=True)
        last = dram.access(0, 63, is_prefetch=True)
        assert last > first

    def test_demands_serialize_with_demands(self):
        dram = fresh()
        first = dram.access(0, 0)
        second = dram.access(0, 1)
        assert second >= first  # row hit after row miss, shared bus

    def test_stalled_prefetch_does_not_reserve_bus(self):
        """A prefetch whose bank is busy completes late but must not push
        the whole bus queue out with it (FR-FCFS bypass)."""
        dram = fresh()
        banks = dram.config.banks_per_channel
        # Two rows of the same bank: the second ACT waits ~tRC.
        same_bank_row0 = 0
        same_bank_row1 = banks << dram._row_shift
        dram.access(0, same_bank_row0, is_prefetch=True)
        slow = dram.access(0, same_bank_row1, is_prefetch=True)
        # An unrelated prefetch to a different bank right after: its bus
        # slot is just behind two bursts, far earlier than `slow`.
        other_bank = 1 << dram._row_shift
        fast = dram.access(0, other_bank, is_prefetch=True)
        assert fast < slow


class TestMergeBound:
    def test_bound_is_a_clean_demand_round_trip(self):
        dram = fresh()
        bound = dram.demand_merge_bound()
        assert dram.tCL + dram.burst <= bound <= 3 * (dram.tRP + dram.tRCD + dram.tCL)

    def test_hierarchy_caps_prefetched_residuals(self):
        from repro.memory.cache import CacheLine
        from repro.memory.hierarchy import MemoryHierarchy

        hierarchy = MemoryHierarchy(dram=fresh())
        line = CacheLine(tag=1, tick=0, prefetched=True, ready=100_000)
        residual = hierarchy._residual(0, line)
        assert residual == hierarchy.dram.demand_merge_bound()

    def test_demand_filled_residual_uncapped(self):
        from repro.memory.cache import CacheLine
        from repro.memory.hierarchy import MemoryHierarchy

        hierarchy = MemoryHierarchy(dram=fresh())
        line = CacheLine(tag=1, tick=0, prefetched=False, ready=500)
        assert hierarchy._residual(0, line) == 500

    def test_ready_line_has_no_residual(self):
        from repro.memory.cache import CacheLine
        from repro.memory.hierarchy import MemoryHierarchy

        hierarchy = MemoryHierarchy(dram=fresh())
        line = CacheLine(tag=1, tick=0, prefetched=True, ready=5)
        assert hierarchy._residual(10, line) == 0


class TestBandwidthAccounting:
    def test_cas_counted_for_prefetch_and_demand(self):
        dram = fresh()
        dram.access(0, 0)
        dram.access(0, 100, is_prefetch=True)
        assert dram.monitor._counter == 2.0

    def test_utilization_rises_with_load(self):
        dram = fresh()
        quiet = dram.utilization(10_000)
        for i in range(500):
            dram.access(i * dram.burst, i)
        busy = dram.utilization(500 * dram.burst)
        assert busy > quiet
