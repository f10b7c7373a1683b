"""End-to-end tests for the DSPatch prefetcher (Section 3)."""

import pytest

from repro.core.dspatch import DSPatch, DSPatchConfig
from repro.core.spt import fold_xor_hash
from repro.memory.dram import FixedBandwidth

TRIGGER_PC = 0x40100


def visit_page(pf, page, offsets, pc=TRIGGER_PC, cycle=0):
    """Access a page's offsets in order; returns all candidates emitted."""
    out = []
    for off in offsets:
        out.extend(pf.train(cycle, pc, (page << 12) | (off << 6), hit=False))
    return out


def teach(pf, offsets, pages=70, pc=TRIGGER_PC, base_page=0x1000):
    """Visit enough pages (PB is 64 entries) to force eviction learning."""
    for i in range(pages):
        visit_page(pf, base_page + i, offsets, pc=pc)


# A 128B-pair-friendly layout whose trigger is offset 4.  It stays within
# segment 0 so these single-PC tests have exactly one trigger per page —
# with a shared PC, a second (segment-1) trigger would fold differently
# anchored patterns into the same tagless SPT entry, which is realistic
# aliasing but not what these tests probe.
LAYOUT = [4, 5, 12, 13, 20, 21]
#: A layout spanning both 2KB segments, for the multi-trigger tests.
SPAN_LAYOUT = [4, 5, 40, 41]


class TestLearningAndPrediction:
    def test_cold_trigger_predicts_nothing(self):
        pf = DSPatch(FixedBandwidth(0))
        assert visit_page(pf, 0x10, [4]) == []

    def test_learned_layout_predicted_on_new_page(self):
        pf = DSPatch(FixedBandwidth(0))
        teach(pf, LAYOUT)
        cands = pf.train(0, TRIGGER_PC, (0x9000 << 12) | (4 << 6), hit=False)
        offsets = sorted(c.line_addr & 63 for c in cands)
        # The trigger's own line (4) is excluded but its 128B companion
        # (5) is prefetched; all other layout lines are predicted.
        assert offsets == [5, 12, 13, 20, 21]

    def test_prediction_is_anchored_to_trigger(self):
        """The same layout shifted by an even amount predicts shifted —
        the anchoring property SMS lacks (Section 3.3)."""
        pf = DSPatch(FixedBandwidth(0))
        teach(pf, LAYOUT)
        shift = 10
        shifted_trigger = (4 + shift) % 64
        cands = pf.train(
            0, TRIGGER_PC, (0x9000 << 12) | (shifted_trigger << 6), hit=False
        )
        offsets = sorted(c.line_addr & 63 for c in cands)
        assert offsets == sorted((o + shift) % 64 for o in (5, 12, 13, 20, 21))

    def test_jittered_training_still_learns(self):
        """Training visits at different page positions anchor to one
        pattern (Figure 2's streams B-E).

        Shifts are bounded so the layout never wraps past the page end:
        wrapping changes which access first touches the *other* segment,
        and with a single PC that second trigger would alias into the same
        SPT entry (the body PC differs in real traffic).
        """
        pf = DSPatch(FixedBandwidth(0))
        for i in range(70):
            shift = (2 * i) % 10  # max offset 21 + 8 stays inside segment 0
            offsets = [o + shift for o in LAYOUT]
            visit_page(pf, 0x1000 + i, offsets)
        cands = pf.train(0, TRIGGER_PC, (0x9000 << 12) | (4 << 6), hit=False)
        offsets = sorted(c.line_addr & 63 for c in cands)
        assert offsets == [5, 12, 13, 20, 21]

    def test_reordered_training_learns_same_pattern(self):
        """Body reordering within one segment leaves learning unchanged."""
        pf = DSPatch(FixedBandwidth(0))
        import random

        random.seed(3)
        layout = [4, 5, 20, 21, 30, 31]  # all within segment 0
        for i in range(70):
            body = layout[1:]
            random.shuffle(body)
            visit_page(pf, 0x1000 + i, [layout[0]] + body)
        cands = pf.train(0, TRIGGER_PC, (0x9000 << 12) | (4 << 6), hit=False)
        assert sorted(c.line_addr & 63 for c in cands) == [5, 20, 21, 30, 31]

    def test_one_trigger_per_segment(self):
        pf = DSPatch(FixedBandwidth(0))

        def trigger_offsets():
            triggers = pf.page_buffer._pages[0x10].triggers
            return [None if t is None else t[1] for t in triggers]

        visit_page(pf, 0x10, [4, 7, 9, 12])  # all in segment 0
        assert trigger_offsets() == [4, None]
        visit_page(pf, 0x10, [40, 45])  # first touches of segment 1
        assert trigger_offsets() == [4, 40]
        visit_page(pf, 0x10, [50, 3])  # no new triggers
        assert trigger_offsets() == [4, 40]

    def test_candidates_capped(self):
        cfg = DSPatchConfig(max_candidates_per_trigger=8)
        pf = DSPatch(FixedBandwidth(0), cfg)
        teach(pf, list(range(0, 64, 2)))  # dense page
        cands = pf.train(0, TRIGGER_PC, (0x9000 << 12), hit=False)
        assert len(cands) <= 8

    def test_distinct_pcs_learn_distinct_patterns(self):
        pf = DSPatch(FixedBandwidth(0))
        pc_a, pc_b = 0x40100, 0x40104
        assert fold_xor_hash(pc_a) != fold_xor_hash(pc_b)
        teach(pf, [0, 1, 10, 11], pc=pc_a, base_page=0x1000)
        teach(pf, [0, 1, 30, 31], pc=pc_b, base_page=0x8000)
        a = pf.train(0, pc_a, 0xA000 << 12, hit=False)
        b = pf.train(0, pc_b, 0xB000 << 12, hit=False)
        # Trigger at line 0: its 128B companion (line 1) plus the layout.
        assert sorted(c.line_addr & 63 for c in a) == [1, 10, 11]
        assert sorted(c.line_addr & 63 for c in b) == [1, 30, 31]


class TestBandwidthAdaptation:
    def _trained(self, bw):
        pf = DSPatch(bw)
        teach(pf, LAYOUT)
        return pf

    def test_low_bw_uses_covp(self):
        bw = FixedBandwidth(0)
        pf = self._trained(bw)
        pf.train(0, TRIGGER_PC, 0x9000 << 12 | (4 << 6), hit=False)
        assert pf.predictions_covp > 0

    def test_high_bw_uses_accp(self):
        bw = FixedBandwidth(0)
        pf = self._trained(bw)
        bw.set_bucket(3)
        before = pf.predictions_accp
        pf.train(0, TRIGGER_PC, 0x9000 << 12 | (4 << 6), hit=False)
        assert pf.predictions_accp > before

    def test_high_bw_with_bad_accp_suppresses(self):
        bw = FixedBandwidth(0)
        pf = self._trained(bw)
        # Evict every taught page through the PB (learning it) with pages
        # another PC triggers, so the upcoming train() evicts no page that
        # would update the counters saturated here.
        other_pc = 0x40104
        assert fold_xor_hash(other_pc) != fold_xor_hash(TRIGGER_PC)
        teach(pf, LAYOUT, pages=pf.config.pb_entries, pc=other_pc, base_page=0x5000)
        entry = pf.spt.lookup(TRIGGER_PC)
        entry.measure_accp[0] = 3
        entry.measure_accp[1] = 3
        bw.set_bucket(3)
        cands = pf.train(0, TRIGGER_PC, 0x9000 << 12 | (4 << 6), hit=False)
        assert not cands
        assert pf.predictions_suppressed > 0

    def test_saturated_covp_fills_low_priority(self):
        bw = FixedBandwidth(0)
        pf = self._trained(bw)
        entry = pf.spt.lookup(TRIGGER_PC)
        entry.measure_covp[0] = 3
        entry.measure_covp[1] = 3
        cands = pf.train(0, TRIGGER_PC, 0x9000 << 12 | (4 << 6), hit=False)
        assert cands and all(c.low_priority for c in cands)


class TestSegmentRules:
    def test_segment1_trigger_predicts_half_region(self):
        """A segment-1 trigger predicts only the 2KB region from the
        trigger (Section 3.7)."""
        pf = DSPatch(FixedBandwidth(0))
        layout = [34, 35, 50, 51]  # all within segment 1
        teach(pf, layout)
        cands = pf.train(0, TRIGGER_PC, (0x9000 << 12) | (34 << 6), hit=False)
        offsets = sorted(c.line_addr & 63 for c in cands)
        assert offsets == [35, 50, 51]

    def test_full_page_prediction_from_segment0(self):
        pf = DSPatch(FixedBandwidth(0))
        teach(pf, SPAN_LAYOUT)  # spans both segments, trigger in segment 0
        cands = pf.train(0, TRIGGER_PC, (0x9000 << 12) | (4 << 6), hit=False)
        offsets = {c.line_addr & 63 for c in cands}
        assert 40 in offsets  # segment-1 bits predicted too


class TestConfig:
    @pytest.mark.parametrize("bits", (0, -1))
    def test_rejects_signature_under_one_bit(self, bits):
        """Folding a PC by 0 bits never ends; by -1 it cannot shift."""
        with pytest.raises(ValueError, match="pc_signature_bits"):
            DSPatch(FixedBandwidth(0), DSPatchConfig(pc_signature_bits=bits))

    def test_rejects_an_unknown_selection(self):
        with pytest.raises(ValueError, match="selection"):
            DSPatch(FixedBandwidth(0), DSPatchConfig(selection="bogus"))

    @pytest.mark.parametrize("bits", (1, 64))
    def test_any_positive_signature_width_trains(self, bits):
        pf = DSPatch(FixedBandwidth(0), DSPatchConfig(pc_signature_bits=bits))
        teach(pf, LAYOUT)
        assert pf.train(0, TRIGGER_PC, (0x9000 << 12) | (4 << 6), hit=False)


class TestStorage:
    def test_total_is_paper_3_6_kb(self):
        pf = DSPatch(FixedBandwidth(0))
        assert pf.storage_bits() == 64 * 158 + 256 * 76 == 29568
        assert pf.storage_kb() == pytest.approx(3.61, abs=0.01)

    def test_reset(self):
        pf = DSPatch(FixedBandwidth(0))
        teach(pf, LAYOUT)
        pf.reset()
        assert not pf.train(0, TRIGGER_PC, 0x9000 << 12 | (4 << 6), hit=False)


ALWAYS_COVP = DSPatchConfig(selection="covp")
MOD_COVP = DSPatchConfig(selection="modcovp")


class CountingBandwidth(FixedBandwidth):
    """A fixed bandwidth signal that counts its bucket reads."""

    reads = 0

    def bucket(self, cycle):
        self.reads += 1
        return super().bucket(cycle)


class TestVariants:
    def test_alwayscovp_uses_covp_at_high_bw(self):
        bw = FixedBandwidth(0)
        pf = DSPatch(bw, ALWAYS_COVP)
        teach(pf, LAYOUT)
        bw.set_bucket(3)
        before = pf.predictions_covp
        pf.train(0, TRIGGER_PC, 0x9000 << 12 | (4 << 6), hit=False)
        assert pf.predictions_covp > before
        assert pf.predictions_accp == 0

    @pytest.mark.parametrize("selection,reads", [("dual", 1), ("modcovp", 1), ("covp", 0)])
    def test_bucket_reads_of_a_trigger_that_evicts_nothing(self, selection, reads):
        """A segment-1 trigger selects one half: Figure 10 and ModCovP read
        the bucket for it, AlwaysCovP reads none (a read closes the
        monitor's elapsed windows).  Its page is in the page buffer, so
        no eviction's learning reads the bucket either."""
        bw = CountingBandwidth(0)
        pf = DSPatch(bw, DSPatchConfig(selection=selection))
        teach(pf, LAYOUT)
        page = 0x1000 + 69  # taught last, still buffered
        before = bw.reads
        assert pf.train(0, TRIGGER_PC, (page << 12) | (36 << 6), hit=False)
        assert bw.reads - before == reads

    def test_modcovp_throttles_at_high_bw(self):
        bw = FixedBandwidth(0)
        pf = DSPatch(bw, MOD_COVP)
        teach(pf, LAYOUT)
        bw.set_bucket(3)
        cands = pf.train(0, TRIGGER_PC, 0x9000 << 12 | (4 << 6), hit=False)
        assert not cands
        assert pf.predictions_accp == 0

    def test_modcovp_predicts_at_low_bw(self):
        bw = FixedBandwidth(0)
        pf = DSPatch(bw, MOD_COVP)
        teach(pf, LAYOUT)
        cands = pf.train(0, TRIGGER_PC, 0x9000 << 12 | (4 << 6), hit=False)
        assert cands

    def test_variants_share_learning_path(self):
        """Only selection differs: CovP contents match full DSPatch."""
        full = DSPatch(FixedBandwidth(0))
        always = DSPatch(FixedBandwidth(0), ALWAYS_COVP)
        teach(full, LAYOUT)
        teach(always, LAYOUT)
        assert (
            full.spt.lookup(TRIGGER_PC).covp == always.spt.lookup(TRIGGER_PC).covp
        )
