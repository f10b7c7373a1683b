"""Tests for the Signature Pattern Prefetcher (SPP / eSPP)."""

import pytest

from repro.memory.dram import FixedBandwidth
from repro.prefetchers.spp import (
    ESPP,
    SIGNATURE_MASK,
    SPP,
    SppConfig,
    advance_signature,
    encode_delta,
)


def train_offsets(pf, page, offsets, pc=0x400, start=0):
    """Train a page's offset sequence; returns all candidates generated.

    Deep confidence-bounded lookahead can cover a whole page within the
    first few trainings (later trainings return nothing new thanks to the
    prefetch filter), so candidates are accumulated across the sequence.
    """
    out = []
    for i, off in enumerate(offsets):
        out.extend(pf.train(start + i, pc, (page << 12) | (off << 6), hit=False))
    return out


class TestSignatureMath:
    def test_encode_positive(self):
        assert encode_delta(3) == 3

    def test_encode_negative_sets_sign_bit(self):
        assert encode_delta(-3) == 0x43

    def test_encode_magnitude_masked(self):
        assert encode_delta(64) == 0  # 64 & 0x3F

    def test_advance_stays_in_12_bits(self):
        sig = 0
        for delta in (1, 2, -7, 33, 1, 1):
            sig = advance_signature(sig, delta)
            assert 0 <= sig <= SIGNATURE_MASK

    def test_advance_depends_on_history(self):
        a = advance_signature(advance_signature(0, 1), 2)
        b = advance_signature(advance_signature(0, 2), 1)
        assert a != b


class TestLearning:
    def test_constant_stride_prefetches_ahead(self):
        pf = SPP()
        engaged = False
        for i, off in enumerate(range(10)):
            cands = pf.train(i, 0x400, (0x10 << 12) | (off << 6), hit=False)
            engaged = engaged or bool(cands)
            # Every candidate is strictly ahead of the current position.
            assert all((c.line_addr & 63) > off for c in cands)
        assert engaged  # prefetching engaged

    def test_lookahead_goes_multiple_deep(self):
        """Early in a stream the recursion emits several candidates at
        once; in steady state the prefetch filter admits one new line per
        access (the lookahead frontier)."""
        pf = SPP()
        total = []
        for i, off in enumerate(range(12)):
            total.extend(pf.train(i, 0x400, (0x10 << 12) | (off << 6), hit=False))
        assert len(total) >= 6

    def test_candidates_stay_in_page(self):
        pf = SPP()
        cands = train_offsets(pf, 0x10, range(55, 64))
        for cand in cands:
            assert cand.line_addr >> 6 == 0x10

    def test_alternating_deltas_learned(self):
        """The 1,2,1,2 pattern of Section 2.2's example."""
        pf = SPP()
        offsets = [0]
        for i in range(20):
            offsets.append(offsets[-1] + (1 if i % 2 == 0 else 2))
        cands = train_offsets(pf, 0x10, [o for o in offsets if o < 64])
        assert cands

    def test_no_prefetch_without_history(self):
        pf = SPP()
        assert not train_offsets(pf, 0x10, [5])

    def test_zero_delta_ignored(self):
        pf = SPP()
        assert not train_offsets(pf, 0x10, [5, 5, 5])

    def test_pattern_shared_across_pages(self):
        """Signatures are page-agnostic: a delta pattern learned on one
        page prefetches on another."""
        pf = SPP()
        for page in range(0x10, 0x18):
            train_offsets(pf, page, range(12))
        cands = train_offsets(pf, 0x99, range(4))
        assert cands

    def test_counter_aging_halves(self):
        pf = SPP(SppConfig(counter_max=3))
        for _ in range(20):
            train_offsets(pf, 0x10, [0, 1])
        for c_sig in pf._pt_c_sig:
            assert c_sig <= 4  # aged, never far past the max


class TestPrefetchFilter:
    def test_repeated_candidates_filtered(self):
        pf = SPP()
        first = train_offsets(pf, 0x10, range(10))
        assert first
        # Re-training the same stream immediately re-generates the same
        # candidates, which the filter suppresses.
        second = train_offsets(pf, 0x10, [10], start=100)
        lines_first = {c.line_addr for c in first}
        lines_second = {c.line_addr for c in second}
        assert not lines_first & lines_second
        assert lines_first <= set(pf._filter)


class TestGhr:
    def test_cross_page_bootstrap(self):
        """A stream crossing a page boundary resumes prefetching on the
        next page through the GHR."""
        pf = SPP()
        train_offsets(pf, 0x10, range(52, 64))  # runs off the page end
        assert pf._ghr  # boundary crossing recorded
        cands = pf.train(100, 0x400, (0x11 << 12) | (0 << 6), hit=False)
        assert cands  # bootstrap produced immediate candidates


class TestStorage:
    def test_storage_near_paper_budget(self):
        kb = SPP().storage_kb()
        assert 5.0 <= kb <= 7.0  # paper: 6.2KB

    def test_breakdown_structures(self):
        breakdown = SPP().storage_breakdown()
        assert set(breakdown) == {
            "signature-table",
            "pattern-table",
            "ghr",
            "prefetch-filter",
            "feedback",
        }

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            SPP(SppConfig(st_entries=100))

    @pytest.mark.parametrize("field", ("st_entries", "pt_entries", "delta_slots", "filter_entries"))
    @pytest.mark.parametrize("espp", (False, True), ids=("spp", "espp"))
    def test_rejects_empty_tables(self, field, espp):
        """An empty table would raise ``IndexError`` on the first train."""
        cfg = SppConfig(**{field: 0})
        with pytest.raises(ValueError):
            ESPP(FixedBandwidth(0), cfg) if espp else SPP(cfg)

    def test_runs_without_a_ghr(self):
        pf = SPP(SppConfig(ghr_entries=0))
        train_offsets(pf, 0x10, range(0, 40, 2))
        # Every training reached the ST entry; nothing was kept in a GHR.
        assert pf._st[0x10].last_offset == 38
        assert pf._ghr == []


class TestESPP:
    def test_threshold_relaxes_at_low_utilization(self):
        bw = FixedBandwidth(0)
        pf = ESPP(bw)
        assert pf._threshold(0) == pf.config.relaxed_threshold

    def test_threshold_strict_at_high_utilization(self):
        bw = FixedBandwidth(3)
        pf = ESPP(bw)
        assert pf._threshold(0) == pf.config.prefetch_threshold

    def test_boundary_at_half_utilization(self):
        assert ESPP(FixedBandwidth(1))._threshold(0) == SppConfig().relaxed_threshold
        assert ESPP(FixedBandwidth(2))._threshold(0) == SppConfig().prefetch_threshold

    def test_low_threshold_prefetches_at_least_as_much(self):
        relaxed = ESPP(FixedBandwidth(0))
        strict = ESPP(FixedBandwidth(3))
        n_relaxed = sum(
            len(train_offsets(relaxed, page, [0, 3, 6, 9, 11, 13])) for page in range(32)
        )
        n_strict = sum(
            len(train_offsets(strict, page, [0, 3, 6, 9, 11, 13])) for page in range(32)
        )
        assert n_relaxed >= n_strict


class TestFeedback:
    def test_reset_clears_tables(self):
        pf = SPP()
        train_offsets(pf, 0x10, range(10))
        pf.reset()
        # No ST entry and an empty GHR: the first access predicts nothing.
        assert not train_offsets(pf, 0x10, [0])
        assert pf._ghr == []
