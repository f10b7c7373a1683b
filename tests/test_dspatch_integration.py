"""DSPatch-in-the-hierarchy integration invariants."""

import pytest

from repro.core.dspatch import DSPatch
from repro.memory.dram import FixedBandwidth
from repro.workloads.catalog import build_trace


class TestCandidateInvariants:
    @pytest.mark.parametrize(
        "workload", ["sysmark.excel", "hpc.linpack", "cloud.bigbench"]
    )
    def test_prefetches_stay_in_triggering_page(self, workload):
        """DSPatch's patterns are per-page: no candidate may leave the
        4KB page of its trigger (the §3/vm constraint)."""
        pf = DSPatch(FixedBandwidth(0))
        trace = build_trace(workload, 4000)
        for i, (gap, pc, addr, flags) in enumerate(trace):
            page = addr >> 12
            for cand in pf.train(i * 30, pc, addr, hit=False):
                assert cand.line_addr >> 6 == page

    def test_trigger_line_never_prefetched(self):
        pf = DSPatch(FixedBandwidth(0))
        trace = build_trace("sysmark.excel", 4000)
        last_addr = {}
        for i, (gap, pc, addr, flags) in enumerate(trace):
            cands = pf.train(i * 30, pc, addr, hit=False)
            line = addr >> 6
            assert all(c.line_addr != line for c in cands)

    def test_low_priority_only_when_measure_saturated(self):
        """Low-priority fills come from the Figure 10 low-utilization +
        saturated-MeasureCovP path only."""
        pf = DSPatch(FixedBandwidth(0))
        trace = build_trace("cloud.bigbench", 6000)
        for i, (gap, pc, addr, flags) in enumerate(trace):
            cands = pf.train(i * 30, pc, addr, hit=False)
            if any(c.low_priority for c in cands):
                # The entry that produced these must have a saturated
                # coverage measure on at least one half.
                from repro.core.spt import fold_xor_hash

                entry = pf.spt.lookup_by_signature(
                    fold_xor_hash(pc, pf.config.pc_signature_bits)
                )
                assert entry.covp_saturated(0) or entry.covp_saturated(1)


class TestStatCounters:
    def test_trigger_count_at_most_two_per_page_residency(self):
        pf = DSPatch(FixedBandwidth(0))
        trace = build_trace("hpc.linpack", 4000)
        for i, (gap, pc, addr, flags) in enumerate(trace):
            pf.train(i * 30, pc, addr, hit=False)
        # A page holds at most one trigger per 2KB segment: the first
        # line it touched there.
        entries = list(pf.page_buffer._pages.values())
        assert any(None not in entry.triggers for entry in entries)
        for entry in entries:
            for segment, trigger in enumerate(entry.triggers):
                if trigger is not None:
                    _signature, offset = trigger
                    assert offset >> 5 == segment
                    assert (entry.pattern >> offset) & 1

    def test_prediction_counters_partition_selections(self):
        pf = DSPatch(FixedBandwidth(0))
        trace = build_trace("sysmark.excel", 5000)
        for i, (gap, pc, addr, flags) in enumerate(trace):
            pf.train(i * 30, pc, addr, hit=False)
        total = pf.predictions_covp + pf.predictions_accp + pf.predictions_suppressed
        assert total > 0
        # At a pinned-low signal, AccP is never selected (Figure 10).
        assert pf.predictions_accp == 0
