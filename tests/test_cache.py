"""Tests for the set-associative cache and its two replacement policies."""

import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.constants import LINE_SHIFT
from repro.memory.cache import Cache, CacheConfig, EvictionInfo
from repro.memory.dram import DramModel
from repro.memory.hierarchy import L1, MemoryHierarchy


def small_cache(ways=2, sets=4, replacement="lru"):
    return Cache(
        CacheConfig(
            name="t",
            size_bytes=ways * sets * 64,
            ways=ways,
            hit_latency=5,
            replacement=replacement,
        )
    )


class TestGeometry:
    def test_num_sets_derivation(self):
        cfg = CacheConfig(name="L1", size_bytes=32 * 1024, ways=8, hit_latency=5)
        assert cfg.num_sets == 64

    def test_rejects_non_power_of_two_sets(self):
        cfg = CacheConfig(name="bad", size_bytes=3 * 64 * 2, ways=2, hit_latency=1)
        with pytest.raises(ValueError):
            cfg.num_sets


class TestBasicOperation:
    def test_miss_then_hit(self):
        c = small_cache()
        assert c.access(0x100, cycle=0) is None
        c.fill(0x100, cycle=0)
        assert c.access(0x100, cycle=1) is not None

    def test_miss_counter(self):
        """Only the L2 lookup counts a demand miss, on the hierarchy; the
        reset zeroes it and keeps the line."""
        h = MemoryHierarchy(dram=DramModel())
        h.access(0, 0, 0x1000)
        _latency, level = h.access(1000, 0, 0x1000)
        assert level == L1 and h.l2_demand_misses == 1
        h.reset_stats()
        assert h.l2_demand_misses == 0
        assert h.l2.contains(0x1000 >> LINE_SHIFT)

    def test_probe_does_not_change_stats(self):
        h = MemoryHierarchy(dram=DramModel())
        c = h.l2
        c.fill(0x100, 0)
        touched = c.probe(0x100).last_touch
        c.probe(0x200)
        assert h.l2_demand_misses == 0
        assert c.probe(0x100).last_touch == touched

    def test_contains(self):
        c = small_cache()
        c.fill(0x100, 0)
        assert c.contains(0x100)
        assert not c.contains(0x101)

    def test_different_sets_do_not_conflict(self):
        c = small_cache(ways=1, sets=4)
        c.fill(0, 0)
        c.fill(1, 0)
        assert c.contains(0) and c.contains(1)

    def test_invalidate(self):
        c = small_cache()
        c.fill(0x100, 0)
        c.invalidate(0x100)
        assert not c.contains(0x100)


class TestEviction:
    def test_lru_victim(self):
        c = small_cache(ways=2, sets=1)
        c.fill(0, 0)
        c.fill(1, 1)
        c.access(0, 2)  # 1 becomes LRU
        evicted = c.fill(2, 3)
        assert evicted.line_addr == 1

    def test_eviction_info_fields(self):
        c = small_cache(ways=1, sets=1)
        c.fill(0, 0, prefetched=True)
        evicted = c.fill(1, 1)
        assert evicted.was_prefetched
        assert not evicted.was_used

    def test_refill_of_resident_line_no_eviction(self):
        c = small_cache(ways=1, sets=1)
        c.fill(0, 0)
        assert c.fill(0, 1) is None

    def test_ways_never_exceeded(self):
        c = small_cache(ways=2, sets=2)
        for line in range(40):
            c.fill(line, line)
        assert c.occupancy() <= 4

    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=200))
    def test_occupancy_invariant(self, lines):
        c = small_cache(ways=2, sets=4)
        for i, line in enumerate(lines):
            if not c.contains(line):
                c.fill(line, i)
        assert c.occupancy() <= 8


class TestPrefetchAccounting:
    """The cache reports a prefetched line's first demand use and an
    evicted line's bits; the hierarchy counts them
    (tests/test_hierarchy_extra.py)."""

    def test_first_use_counts_useful(self):
        c = small_cache()
        c.fill(0x10, 0, prefetched=True)
        assert not c.probe(0x10).used
        line = c.access(0x10, 1)
        assert line.used
        assert c.last_access_first_use

    def test_second_use_not_counted(self):
        c = small_cache()
        c.fill(0x10, 0, prefetched=True)
        c.access(0x10, 1)
        c.access(0x10, 2)
        assert not c.last_access_first_use

    def test_demand_fill_has_no_first_use(self):
        c = small_cache()
        c.fill(0x10, 0)
        assert c.access(0x10, 1).used
        assert not c.last_access_first_use

    def test_late_prefetch_detected(self):
        c = small_cache()
        c.fill(0x10, 0, prefetched=True, ready=100)
        line = c.access(0x10, 50)  # before the fill completes
        assert c.last_access_first_use and line.ready > 50

    def test_timely_prefetch_not_late(self):
        c = small_cache()
        c.fill(0x10, 0, prefetched=True, ready=10)
        line = c.access(0x10, 50)
        assert c.last_access_first_use and line.ready <= 50

    def test_unused_prefetch_eviction_counted(self):
        c = small_cache(ways=1, sets=1)
        c.fill(0, 0, prefetched=True)
        evicted = c.fill(1, 1)
        assert evicted == EvictionInfo(0, was_prefetched=True, was_used=False)

    def test_demand_fill_not_useless(self):
        c = small_cache(ways=1, sets=1)
        c.fill(0, 0)
        evicted = c.fill(1, 1)
        assert evicted == EvictionInfo(0, was_prefetched=False, was_used=True)

    def test_touch_for_prefetcher(self):
        c = small_cache()
        c.fill(0x10, 0, prefetched=True)
        c.touch_for_prefetcher(0x10)
        assert c.probe(0x10).used
        c.access(0x10, 1)
        assert not c.last_access_first_use  # touch consumed the first-use


class TestReplacementPolicies:
    def test_hit_refreshes_recency(self):
        c = small_cache(ways=2, sets=1)
        c.fill(0, 0)
        c.fill(1, 1)
        touched = c.probe(0).last_touch
        c.access(0, 2)
        assert c.probe(0).last_touch > c.probe(1).last_touch > touched
        assert c.fill(2, 3).line_addr == 1

    def test_dead_block_prefers_unused_prefetch(self):
        c = small_cache(ways=2, sets=1, replacement="pf-dead-block")
        c.fill(0, 0)
        c.access(0, 1)
        c.fill(1, 2, prefetched=True)  # newer but dead
        evicted = c.fill(2, 3)
        assert evicted.line_addr == 1

    def test_older_of_two_dead_lines_goes_first(self):
        c = small_cache(ways=3, sets=1, replacement="pf-dead-block")
        c.fill(0, 0)
        c.fill(1, 1, prefetched=True)
        c.fill(2, 2, prefetched=True)
        assert c.fill(3, 3).line_addr == 1
        assert c.fill(4, 4).line_addr == 2

    def test_dead_block_falls_back_to_lru(self):
        c = small_cache(ways=2, sets=1, replacement="pf-dead-block")
        c.fill(0, 0)
        c.fill(1, 1)
        evicted = c.fill(2, 2)
        assert evicted.line_addr == 0

    def test_used_prefetch_not_dead(self):
        c = small_cache(ways=2, sets=1, replacement="pf-dead-block")
        c.fill(0, 0, prefetched=True)
        c.access(0, 1)  # now live
        c.fill(1, 2)
        evicted = c.fill(2, 3)
        assert evicted.line_addr == 0  # plain LRU order, not dead preference

    def test_low_priority_fill_evicted_first(self):
        c = small_cache(ways=2, sets=1)
        c.fill(0, 0)
        c.fill(1, 1, low_priority=True)
        evicted = c.fill(2, 2)
        assert evicted.line_addr == 1

    def test_cache_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown replacement policy 'rrip'"):
            small_cache(replacement="rrip")

    def test_kernel_layout_rejects_unknown_policy(self):
        """The config-built kernel layout reads the same name -> mode map."""
        from repro.cpu.system import SystemConfig
        from repro.kernel.state import KernelState, SharedState
        from repro.memory.dram import DramModel
        from repro.workloads.catalog import build_trace

        cfg = SystemConfig.single_thread("none")
        llc = dataclasses.replace(cfg.hierarchy.llc, replacement="rrip")
        cfg = dataclasses.replace(cfg, hierarchy=dataclasses.replace(cfg.hierarchy, llc=llc))
        shared = SharedState(llc, DramModel(cfg.dram))
        with pytest.raises(ValueError, match="unknown replacement policy 'rrip'"):
            KernelState.from_config(cfg, None, build_trace("ispec06.mcf", 10), shared)
