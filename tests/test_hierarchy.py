"""Tests for the memory hierarchy's training, fill and accounting rules."""

import pytest

from repro.memory.cache import Cache, CacheConfig
from repro.memory.dram import DramConfig, DramModel
from repro.memory.hierarchy import (
    DRAM,
    HIT_LEVEL_NAMES,
    L1,
    L2,
    LLC,
    AccessResult,
    HierarchyConfig,
    MemoryHierarchy,
)
from repro.observe.events import DROP
from repro.observe.sinks import CollectingSink
from repro.prefetchers.base import PrefetchCandidate, Prefetcher


class RecordingPrefetcher(Prefetcher):
    """Test double: records training calls and emits scripted candidates."""

    name = "recording"

    def __init__(self, script=None):
        self.trained = []
        self.script = dict(script or {})
        self.useful_notes = []
        self.useless_notes = []

    def train(self, cycle, pc, addr, hit):
        self.trained.append((pc, addr >> 6, hit))
        return self.script.pop(addr >> 6, ())

    def note_useful_prefetch(self, cycle, line_addr):
        self.useful_notes.append(line_addr)

    def note_useless_prefetch(self, cycle, line_addr):
        self.useless_notes.append(line_addr)


def make_hierarchy(l2_pf=None, l1_pf=None, llc_bytes=None, record_pollution=False, sink=None):
    """A hierarchy; the observed one when recording pollution or when
    ``sink`` collects its prefetch events."""
    config = HierarchyConfig()
    if llc_bytes:
        config = config.scaled_llc(llc_bytes)
    kwargs = dict(
        config=config,
        dram=DramModel(DramConfig()),
        l1_prefetcher=l1_pf,
        l2_prefetcher=l2_pf,
    )
    if record_pollution or sink is not None:
        # Pollution recording and event tracing live on the observed subclass.
        from repro.memory.observed import ObservedHierarchy

        return ObservedHierarchy(
            record_pollution_victims=record_pollution,
            sink=sink,
            trace_prefetch=sink is not None,
            **kwargs,
        )
    return MemoryHierarchy(**kwargs)


def drops(sink):
    """``(line, reason)`` of each collected DROP event."""
    return [ev[3:] for ev in sink.events if ev[0] == DROP]


ADDR = 0x1234 << 12  # an arbitrary page


class TestDemandPath:
    def test_cold_miss_goes_to_dram(self):
        h = make_hierarchy()
        result = AccessResult(*h.access(0, 0x400, ADDR))
        assert result.hit_level == DRAM
        assert result.latency > h.llc.hit_latency

    def test_l1_hit_after_fill(self):
        h = make_hierarchy()
        h.access(0, 0x400, ADDR)
        result = AccessResult(*h.access(1000, 0x400, ADDR))
        assert result.hit_level == L1
        assert result.latency >= h.l1.hit_latency

    def test_l2_hit_after_l1_eviction(self):
        h = make_hierarchy()
        h.access(0, 0x400, ADDR)
        # Evict from tiny L1 by filling its set (L1 64 sets x 8 ways):
        # lines mapping to the same L1 set are 64 sets apart.
        for i in range(1, 9):
            h.access(0, 0x400, ADDR + i * 64 * 64)
        latency, level = h.access(10_000, 0x400, ADDR)
        assert level in (L2, LLC)

    def test_demand_fills_all_levels(self):
        h = make_hierarchy()
        h.access(0, 0x400, ADDR)
        line = ADDR >> 6
        assert h.l1.contains(line)
        assert h.l2.contains(line)
        assert h.llc.contains(line)

    @pytest.mark.parametrize("level", (L1, L2, LLC, DRAM), ids=HIT_LEVEL_NAMES)
    def test_each_probed_level_is_one_cache_access(self, level, monkeypatch):
        """A demand reaches ``Cache.access`` once per level it probes, so
        the cache states its hit/miss, recency and first-use rules once."""
        h = make_hierarchy()
        h.access(0, 0x400, ADDR)  # resident at every level
        line = ADDR >> 6
        for cache in (h.l1, h.l2, h.llc)[:level]:
            cache.invalidate(line)
        probed = []
        real_access = Cache.access

        def recording_access(cache, line_addr, cycle):
            probed.append(cache)
            return real_access(cache, line_addr, cycle)

        monkeypatch.setattr(Cache, "access", recording_access)
        _latency, hit_level = h.access(10_000, 0x400, ADDR)
        assert hit_level == level
        assert probed == [h.l1, h.l2, h.llc][: min(level, LLC) + 1]


class TestTrainingRules:
    def test_l2_prefetcher_trained_on_l1_miss(self):
        pf = RecordingPrefetcher()
        h = make_hierarchy(l2_pf=pf)
        h.access(0, 0x400, ADDR)
        assert pf.trained == [(0x400, ADDR >> 6, False)]

    def test_l2_prefetcher_not_trained_on_l1_hit(self):
        pf = RecordingPrefetcher()
        h = make_hierarchy(l2_pf=pf)
        h.access(0, 0x400, ADDR)
        h.access(10, 0x400, ADDR)  # L1 hit
        assert len(pf.trained) == 1

    def test_l1_prefetch_miss_trains_l2_prefetcher(self):
        """Section 4.1: prefetch misses from L1 also train the L2 side."""
        from repro.prefetchers.stride import PcStridePrefetcher

        l2_pf = RecordingPrefetcher()
        h = make_hierarchy(l2_pf=l2_pf, l1_pf=PcStridePrefetcher(degree=1))
        # Train a stride: three accesses at +1 line.
        for i in range(4):
            h.access(100 * i, 0x400, ADDR + i * 64)
        trained_lines = [line for _, line, _ in l2_pf.trained]
        # The stride prefetcher's own requests appear in the training stream.
        assert len(trained_lines) > 4


class TestPrefetchIssue:
    def test_candidate_fills_l2_and_llc(self):
        target = (ADDR >> 6) + 7
        pf = RecordingPrefetcher({ADDR >> 6: [PrefetchCandidate(target)]})
        h = make_hierarchy(l2_pf=pf)
        h.access(0, 0x400, ADDR)
        assert h.l2.contains(target)
        assert h.llc.contains(target)
        assert not h.l1.contains(target)  # L2 prefetches do not fill L1
        assert h.pf_stats.issued == 1

    def test_resident_candidate_dropped(self):
        target = (ADDR >> 6) + 7
        pf = RecordingPrefetcher(
            {ADDR >> 6: [PrefetchCandidate(target)], target: [PrefetchCandidate(target)]}
        )
        sink = CollectingSink()
        h = make_hierarchy(l2_pf=pf, sink=sink)
        h.access(0, 0x400, ADDR)
        h.access(1000, 0x400, (target + 64) << 6)  # unrelated access
        # Re-requesting the resident target is suppressed.
        before = h.pf_stats.issued
        h.access(2000, 0x401, target << 6)
        assert drops(sink) == [(target, "resident")]
        assert h.pf_stats.issued == before

    def test_useful_prefetch_accounting(self):
        target = (ADDR >> 6) + 7
        pf = RecordingPrefetcher({ADDR >> 6: [PrefetchCandidate(target)]})
        h = make_hierarchy(l2_pf=pf)
        h.access(0, 0x400, ADDR)
        _latency, level = h.access(50, 0x404, target << 6)
        assert h.pf_stats.useful == 1
        assert level in (L2, LLC)
        assert pf.useful_notes == [target]

    def test_late_prefetch_pays_remaining_latency(self):
        target = (ADDR >> 6) + 7
        pf = RecordingPrefetcher({ADDR >> 6: [PrefetchCandidate(target)]})
        h = make_hierarchy(l2_pf=pf)
        h.access(0, 0x400, ADDR)
        immediate = AccessResult(*h.access(1, 0x404, target << 6))  # fill in flight
        assert h.pf_stats.late == 1
        assert immediate.latency > h.l2.hit_latency

    def test_timely_prefetch_costs_l2_latency(self):
        target = (ADDR >> 6) + 7
        pf = RecordingPrefetcher({ADDR >> 6: [PrefetchCandidate(target)]})
        h = make_hierarchy(l2_pf=pf)
        h.access(0, 0x400, ADDR)
        latency, _level = h.access(100_000, 0x404, target << 6)
        assert latency == h.l2.hit_latency

    def test_prefetch_queue_bound_drops(self):
        line = ADDR >> 6
        candidates = [PrefetchCandidate(line + i) for i in range(1, 200)]
        pf = RecordingPrefetcher({line: candidates})
        sink = CollectingSink()
        h = make_hierarchy(l2_pf=pf, sink=sink)
        h.prefetch_queue_size = 16
        h.access(0, 0x400, ADDR)
        assert h.pf_stats.issued == 16
        assert drops(sink) == [(line + i, "bandwidth") for i in range(17, 200)]

    def test_coverage_accuracy_math(self):
        target = (ADDR >> 6) + 7
        pf = RecordingPrefetcher({ADDR >> 6: [PrefetchCandidate(target)]})
        h = make_hierarchy(l2_pf=pf)
        h.access(0, 0x400, ADDR)  # 1 demand miss
        h.access(100_000, 0x404, target << 6)  # 1 covered access
        coverage, accuracy, base = h.coverage_accuracy()
        assert base == 2  # 1 useful + 1 demand L2 miss
        assert coverage == pytest.approx(0.5)
        assert accuracy == pytest.approx(1.0)


class TestPollutionRecording:
    def test_logs_disabled_by_default(self):
        h = make_hierarchy()
        h.access(0, 0x400, ADDR)
        assert not h.demand_log
        assert not h.record_pollution_victims

    def test_demand_log_records_l1_misses(self):
        h = make_hierarchy(record_pollution=True)
        h.access(0, 0x400, ADDR)
        assert h.demand_log == [(1, ADDR >> 6)]  # ordinals are 1-based

    def test_prefetch_fill_log(self):
        target = (ADDR >> 6) + 7
        pf = RecordingPrefetcher({ADDR >> 6: [PrefetchCandidate(target)]})
        h = make_hierarchy(l2_pf=pf, record_pollution=True)
        h.access(0, 0x400, ADDR)
        assert (1, target) in h.prefetch_fill_log
