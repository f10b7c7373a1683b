"""Edge-path tests for the memory hierarchy's prefetch plumbing."""

import pytest

from repro.memory.dram import DramModel
from repro.memory.hierarchy import L2, LLC, AccessResult, MemoryHierarchy
from repro.memory.observed import ObservedHierarchy
from repro.observe.events import DROP, FILL, ISSUE
from repro.observe.sinks import CollectingSink
from repro.prefetchers.base import PrefetchCandidate, Prefetcher


class ScriptedPrefetcher(Prefetcher):
    """Returns a queued script of candidate lists, one per train call."""

    name = "scripted"

    def __init__(self):
        self.script = []

    def queue(self, *line_addrs, low_priority=False):
        self.script.append([PrefetchCandidate(a, low_priority) for a in line_addrs])

    def train(self, cycle, pc, addr, hit):
        return self.script.pop(0) if self.script else ()


@pytest.fixture()
def rig():
    pf = ScriptedPrefetcher()
    hierarchy = MemoryHierarchy(dram=DramModel(), l2_prefetcher=pf)
    return hierarchy, pf


@pytest.fixture()
def traced_rig():
    """The rig on the observed hierarchy, its prefetch events collected."""
    pf = ScriptedPrefetcher()
    sink = CollectingSink()
    hierarchy = ObservedHierarchy(
        dram=DramModel(), l2_prefetcher=pf, sink=sink, trace_prefetch=True
    )
    return hierarchy, pf, sink


def demand(hierarchy, line, cycle=0):
    return AccessResult(*hierarchy.access(cycle, 0x400, line << 6))


def events(sink, kind):
    """The ``(line, *extras)`` of each collected event of ``kind``."""
    return [ev[3:] for ev in sink.events if ev[0] == kind]


class TestDropPaths:
    def test_resident_line_dropped(self, traced_rig):
        hierarchy, pf, sink = traced_rig
        demand(hierarchy, 0x100)  # brings 0x100 into L2
        pf.queue(0x100)
        demand(hierarchy, 0x101, cycle=10_000)
        assert events(sink, DROP) == [(0x100, "resident")]
        assert hierarchy.pf_stats.issued == 0

    def test_in_flight_duplicate_dropped(self, traced_rig):
        hierarchy, pf, sink = traced_rig
        pf.queue(0x200)
        pf.queue(0x200)  # second request while the first is in flight
        demand(hierarchy, 0x300)
        # The second train fires within the fill latency; the issue
        # filled the L2 at once, so the duplicate finds it resident.
        demand(hierarchy, 0x301, cycle=1)
        assert hierarchy.pf_stats.issued == 1
        assert events(sink, DROP) == [(0x200, "resident")]

    def test_queue_capacity_drops(self, traced_rig):
        hierarchy, pf, sink = traced_rig
        hierarchy.prefetch_queue_size = 4
        pf.queue(*range(0x1000, 0x1010))  # 16 candidates, capacity 4
        demand(hierarchy, 0x500)
        assert [src for _line, src, _ready in events(sink, FILL)] == ["dram"] * 4
        assert [reason for _line, reason in events(sink, DROP)] == ["bandwidth"] * 12


class TestLatePrefetchAccounting:
    def test_late_use_counts_once(self, rig):
        hierarchy, pf = rig
        pf.queue(0x700)
        demand(hierarchy, 0x600)  # issues the prefetch at ~cycle 0
        # Demand the prefetched line immediately: fill still in flight.
        result = demand(hierarchy, 0x700, cycle=5)
        assert hierarchy.pf_stats.useful == 1
        assert hierarchy.pf_stats.late == 1
        assert result.latency > hierarchy.l2.hit_latency

    def test_timely_use_not_late(self, rig):
        hierarchy, pf = rig
        pf.queue(0x700)
        demand(hierarchy, 0x600)
        result = demand(hierarchy, 0x700, cycle=1_000_000)
        assert hierarchy.pf_stats.useful == 1
        assert hierarchy.pf_stats.late == 0
        assert result.hit_level in (L2, LLC)


class TestLowPriorityFills:
    def test_low_priority_marks_llc_line(self, traced_rig):
        hierarchy, pf, sink = traced_rig
        pf.queue(0x900, low_priority=True)
        demand(hierarchy, 0x800)
        assert events(sink, ISSUE) == [(0x900, 1, "dram")]
        line = hierarchy.llc.probe(0x900)
        assert line is not None
        # Low-priority fills insert near LRU (negative/zero-ish touch).
        assert line.last_touch <= 0


class TestPollutionRecording:
    def test_logs_populated_when_enabled(self):
        pf = ScriptedPrefetcher()
        hierarchy = ObservedHierarchy(
            dram=DramModel(), l2_prefetcher=pf, record_pollution_victims=True
        )
        pf.queue(0xA00)
        demand(hierarchy, 0xB00)
        assert hierarchy.demand_log  # demand below L1 recorded
        assert hierarchy.prefetch_fill_log  # prefetch fill recorded

    def test_logs_empty_when_disabled(self, rig):
        hierarchy, pf = rig
        pf.queue(0xA00)
        demand(hierarchy, 0xB00)
        assert not hierarchy.demand_log
        assert not hierarchy.prefetch_fill_log


class TestCoverageAccuracyHelper:
    def test_zero_activity(self, rig):
        hierarchy, _pf = rig
        coverage, accuracy, base = hierarchy.coverage_accuracy()
        assert coverage == 0.0 and accuracy == 0.0

    def test_counts_useful_over_base(self, rig):
        hierarchy, pf = rig
        pf.queue(0x700)
        demand(hierarchy, 0x600)
        demand(hierarchy, 0x700, cycle=1_000_000)
        coverage, accuracy, base = hierarchy.coverage_accuracy()
        assert 0.0 < coverage <= 1.0
        assert accuracy == 1.0


class TestIssueOutcomes:
    """``_issue_prefetches`` returns what became of its last candidate,
    and the observed subclass emits that outcome's events."""

    LINE = 0x4000
    CYCLE = 100

    def _setup(self, hierarchy, outcome):
        line = self.LINE
        if outcome == "llc":
            hierarchy.llc.fill(line, 0, ready=0)
        elif outcome == "resident":
            hierarchy.l2.fill(line, 0, ready=0)
        elif outcome == "inflight":
            hierarchy._in_flight[line] = self.CYCLE + 500
        elif outcome == "bandwidth":
            hierarchy.prefetch_queue_size = 0

    @pytest.mark.parametrize("outcome", ("dram", "llc", "resident", "inflight", "bandwidth"))
    def test_each_outcome_is_returned_and_emitted(self, outcome):
        cands = (PrefetchCandidate(self.LINE, low_priority=True),)
        plain = MemoryHierarchy(dram=DramModel())
        self._setup(plain, outcome)
        assert plain._issue_prefetches(self.CYCLE, cands) == outcome

        sink = CollectingSink()
        observed = ObservedHierarchy(dram=DramModel(), sink=sink, trace_prefetch=True)
        self._setup(observed, outcome)
        assert observed._issue_prefetches(self.CYCLE, cands) == outcome
        if outcome in ("dram", "llc"):
            assert events(sink, ISSUE) == [(self.LINE, 1, outcome)]
            assert [src for _line, src, _ready in events(sink, FILL)] == [outcome]
            assert events(sink, DROP) == []
        else:
            assert events(sink, DROP) == [(self.LINE, outcome)]
            assert events(sink, ISSUE) == events(sink, FILL) == []
        issued = 1 if outcome in ("dram", "llc") else 0
        assert plain.pf_stats.issued == observed.pf_stats.issued == issued
