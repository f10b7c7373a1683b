"""Tests for the Best Offset Prefetcher (BOP / eBOP)."""

import pytest

from repro.memory.dram import FixedBandwidth
from repro.prefetchers.bop import BOP, EBOP, BopConfig, default_offset_list


class TestOffsetList:
    def test_symmetric(self):
        offsets = default_offset_list()
        positives = [o for o in offsets if o > 0]
        negatives = [o for o in offsets if o < 0]
        assert sorted(-o for o in negatives) == sorted(positives)

    def test_no_zero(self):
        assert 0 not in default_offset_list()

    def test_within_page(self):
        assert all(abs(o) < 64 for o in default_offset_list())

    def test_factors_bounded(self):
        """Offsets follow the original design's small-prime-factor rule."""
        assert 1 in default_offset_list()
        assert 7 not in default_offset_list()  # prime 7 > 5
        assert 48 in default_offset_list()  # 2^4 * 3


def spy_phases(pf):
    """The ranked offsets each learning phase of ``pf`` ends with, from a
    spy on its ``_finish_phase``."""
    rankings = []
    finish = pf._finish_phase

    def spying_finish():
        finish()
        rankings.append(list(pf.active_offsets))

    pf._finish_phase = spying_finish
    return rankings


class TestLearning:
    def test_initial_offset_is_one(self):
        assert BOP().active_offsets == [1]

    def test_stream_keeps_positive_offset(self):
        pf = BOP()
        rankings = spy_phases(pf)
        # ~40 cycles between accesses, as a real miss stream would show.
        for i in range(4000):
            pf.train(i * 40, 0x400, ((0x10 + i // 64) << 12) | ((i % 64) << 6), hit=False)
        assert rankings and pf.active_offsets == rankings[-1]
        assert pf.active_offsets
        assert pf.active_offsets[0] >= 1

    def test_stream_learns_timely_offsets(self):
        """The fill-delayed RR biases scoring toward offsets with lead time.

        At 40 cycles/access and a 300-cycle modelled fill, offsets smaller
        than ~8 lines would always be late, so the winning offset must
        provide at least that much lead.
        """
        pf = BOP()
        for i in range(8000):
            pf.train(i * 40, 0x400, ((0x10 + i // 64) << 12) | ((i % 64) << 6), hit=False)
        assert pf.active_offsets
        assert pf.active_offsets[0] >= 8

    def test_strided_stream_learns_its_delta(self):
        pf = BOP()
        rankings = spy_phases(pf)
        stride = 4
        line = 0
        for i in range(6000):
            addr = (0x100 << 12) + (line << 6)
            pf.train(i * 40, 0x400, addr, hit=False)
            line += stride
            if line >= 64:
                line = 0  # wrap within one page to keep it simple
        assert rankings and pf.active_offsets == rankings[-1]
        assert pf.active_offsets and pf.active_offsets[0] % stride == 0

    def test_random_traffic_disables_prefetching(self):
        import random

        random.seed(7)
        pf = BOP(BopConfig(max_round=3))
        rankings = spy_phases(pf)
        for i in range(4000):
            addr = (random.randrange(1 << 20) << 12) | (random.randrange(64) << 6)
            pf.train(i, 0x400, addr, hit=False)
        # Scores can never beat BadScore on uncorrelated traffic: every
        # phase ends with no offset.
        assert rankings and all(ranking == [] for ranking in rankings)
        assert pf.active_offsets == []

    def test_candidates_stay_in_page(self):
        pf = BOP()
        pf.active_offsets = [8]
        cands = pf.train(0, 0x400, (0x10 << 12) | (60 << 6), hit=False)
        assert not cands  # 60 + 8 crosses the page

    def test_degree_limits_offsets_used(self):
        pf = BOP(BopConfig(degree=1))
        pf.active_offsets = [1, 2, 4]
        cands = pf.train(0, 0x400, (0x10 << 12) | (5 << 6), hit=False)
        assert len(cands) == 1

    def test_rejects_non_power_of_two_rr(self):
        with pytest.raises(ValueError):
            BOP(BopConfig(rr_entries=100))

    def test_rejects_empty_rr(self):
        """An empty RR table would raise ``IndexError`` on the first probe
        (and the C twin would read past its table)."""
        with pytest.raises(ValueError):
            BOP(BopConfig(rr_entries=0))

    def test_storage_near_paper_budget(self):
        kb = BOP().storage_kb()
        assert 1.0 <= kb <= 1.6  # paper: 1.3KB

    def test_reset(self):
        pf = BOP()
        pf.active_offsets = [5]
        pf.reset()
        assert pf.active_offsets == []


class TestEBOP:
    def test_degree_by_bucket(self):
        assert EBOP(FixedBandwidth(0))._degree(0) == 4
        assert EBOP(FixedBandwidth(1))._degree(0) == 4
        assert EBOP(FixedBandwidth(2))._degree(0) == 2
        assert EBOP(FixedBandwidth(3))._degree(0) == 1

    def test_more_headroom_more_candidates(self):
        low = EBOP(FixedBandwidth(0))
        high = EBOP(FixedBandwidth(3))
        for pf in (low, high):
            pf.active_offsets = [1, 2, 3, 4]
        addr = (0x10 << 12) | (5 << 6)
        assert len(low.train(0, 0x400, addr, False)) > len(high.train(0, 0x400, addr, False))
