"""Tests for the DSPatch design-choice ablation variants (Sections 3.3/3.7/3.8)."""

import pytest

from repro.core.dspatch import DSPatch, DSPatchConfig
from repro.memory.dram import FixedBandwidth

NO_ANCHOR = DSPatchConfig(anchored=False)
SINGLE_TRIGGER = DSPatchConfig(segment1_trigger=False)
UNCOMPRESSED = DSPatchConfig(compressed=False)


def visit_page(pf, page, offsets, pc=0x40180, start=0):
    out = []
    for i, off in enumerate(offsets):
        out.extend(pf.train(start + i, pc, (page << 12) | (off << 6), hit=False))
    return out


def teach(pf, offsets, pc=0x40180, pages=range(0x1000, 0x1000 + 70)):
    """Visit enough pages that PB evictions train the SPT."""
    for page in pages:
        visit_page(pf, page, offsets, pc=pc)


LAYOUT = [4, 5, 12, 13]


def triggered_segments(pf, page):
    """The segments of ``page`` whose trigger the page buffer recorded."""
    triggers = pf.page_buffer._pages[page].triggers
    return [segment for segment, t in enumerate(triggers) if t is not None]


class TestNoAnchor:
    def test_same_offset_layout_still_works(self):
        """Without jitter the un-anchored variant predicts fine."""
        pf = DSPatch(FixedBandwidth(0), NO_ANCHOR)
        teach(pf, LAYOUT)
        cands = pf.train(0, 0x40180, (0x9000 << 12) | (4 << 6), hit=False)
        offsets = {c.line_addr & 63 for c in cands}
        assert {12, 13} <= offsets

    def test_jittered_layouts_smear(self):
        """With jitter, the un-anchored CovP ORs shifted copies together:
        predictions no longer track the trigger position (the Figure 2
        failure mode DSPatch's anchoring avoids)."""
        anchored = DSPatch(FixedBandwidth(0))
        unanchored = DSPatch(FixedBandwidth(0), NO_ANCHOR)
        for i in range(70):
            shift = (2 * i) % 10
            offsets = [o + shift for o in LAYOUT]
            visit_page(anchored, 0x1000 + i, offsets)
            visit_page(unanchored, 0x1000 + i, offsets)
        shift = 6
        trigger = 4 + shift
        want = {(o + shift) % 64 for o in (5, 12, 13)}
        got_anchored = {
            c.line_addr & 63
            for c in anchored.train(0, 0x40180, (0x9000 << 12) | (trigger << 6), hit=False)
        }
        got_unanchored = {
            c.line_addr & 63
            for c in unanchored.train(
                0, 0x40180, (0x9500 << 12) | (trigger << 6), hit=False
            )
        }
        assert want <= got_anchored
        # The un-anchored prediction is independent of the trigger, so it
        # sprays the union of all shifted copies instead.
        assert len(got_unanchored) > len(got_anchored)


class TestSingleTrigger:
    def test_segment1_never_triggers(self):
        pf = DSPatch(FixedBandwidth(0), SINGLE_TRIGGER)
        visit_page(pf, 0x10, [40, 45, 50])  # segment-1 accesses only
        assert triggered_segments(pf, 0x10) == []

    def test_segment0_still_triggers(self):
        pf = DSPatch(FixedBandwidth(0), SINGLE_TRIGGER)
        visit_page(pf, 0x10, [4, 40])
        assert triggered_segments(pf, 0x10) == [0]

    def test_full_design_triggers_both(self):
        pf = DSPatch(FixedBandwidth(0))
        visit_page(pf, 0x10, [4, 40])
        assert triggered_segments(pf, 0x10) == [0, 1]


class TestUncompressed:
    def test_storage_larger(self):
        full = DSPatch(FixedBandwidth(0))
        wide = DSPatch(FixedBandwidth(0), UNCOMPRESSED)
        assert wide.storage_bits() > full.storage_bits() * 1.4

    def test_no_companion_overprediction(self):
        """64B granularity predicts exactly the learnt lines — no 128B
        companion expansion."""
        pf = DSPatch(FixedBandwidth(0), UNCOMPRESSED)
        teach(pf, [4, 12, 20])  # isolated lines, no adjacent pairs
        cands = pf.train(0, 0x40180, (0x9000 << 12) | (4 << 6), hit=False)
        offsets = sorted(c.line_addr & 63 for c in cands)
        assert offsets == [12, 20]

    def test_compressed_overpredicts_companions(self):
        """The default 128B patterns expand each bit to both lines."""
        pf = DSPatch(FixedBandwidth(0))
        teach(pf, [4, 12, 20])
        cands = pf.train(0, 0x40180, (0x9000 << 12) | (4 << 6), hit=False)
        offsets = sorted(c.line_addr & 63 for c in cands)
        # Each learnt line drags its 128B companion along.
        assert offsets == [5, 12, 13, 20, 21]

    def test_anchoring_still_works_uncompressed(self):
        pf = DSPatch(FixedBandwidth(0), UNCOMPRESSED)
        teach(pf, [4, 12, 20])
        shift = 7  # odd shifts are fine at 64B granularity
        cands = pf.train(
            0, 0x40180, (0x9000 << 12) | ((4 + shift) << 6), hit=False
        )
        offsets = sorted(c.line_addr & 63 for c in cands)
        assert offsets == [12 + shift, 20 + shift]


class TestRegistryVariants:
    @pytest.mark.parametrize(
        "name",
        [
            "dspatch-noanchor",
            "dspatch-1trigger",
            "dspatch-64b",
            "dspatch-spt512",
            "dspatch-spt128",
            "dspatch-spt64",
            "dspatch-pb128",
            "dspatch-pb32",
        ],
    )
    def test_buildable_and_trains(self, name):
        from repro.prefetchers.registry import build_prefetcher

        pf = build_prefetcher(name, FixedBandwidth(0))
        for i in range(200):
            pf.train(i, 0x400 + (i % 7) * 4, ((0x100 + i // 8) << 12) | ((i % 64) << 6), False)
        assert pf.storage_bits() > 0
