"""Tests for Spatial Memory Streaming (SMS)."""

import pytest

from repro.prefetchers.sms import SMS, SmsConfig, sms_with_pht_entries


def access(pf, pc, region, offset, cycle=0):
    addr = (region << 11) | (offset << 6)
    return pf.train(cycle, pc, addr, hit=False)


def teach_layout(pf, pc, regions, offsets):
    """Visit regions with a fixed layout, then promote as many fresh
    regions of another PC as the AT holds: each taught region leaves the
    AT through the spec's own eviction, which stores it in the PHT."""
    for region in regions:
        for off in offsets:
            access(pf, pc, region, off)
    other_pc = pc ^ 0xF000
    first = max(regions) + 1
    for region in range(first, first + pf.config.at_entries):
        access(pf, other_pc, region, 0)
        access(pf, other_pc, region, 1)


class TestTables:
    def test_first_access_enters_filter_table(self):
        pf = SMS()
        access(pf, 0x400, 0x10, 3)
        assert 0x10 in pf._ft
        assert 0x10 not in pf._at

    def test_second_access_promotes_to_at(self):
        pf = SMS()
        access(pf, 0x400, 0x10, 3)
        access(pf, 0x404, 0x10, 7)
        assert 0x10 in pf._at
        assert 0x10 not in pf._ft

    def test_at_accumulates_pattern(self):
        pf = SMS()
        for off in (3, 7, 9):
            access(pf, 0x400, 0x10, off)
        assert pf._at[0x10].pattern == (1 << 3) | (1 << 7) | (1 << 9)

    def test_trigger_recorded(self):
        pf = SMS()
        access(pf, 0x777, 0x10, 5)
        assert pf._ft[0x10].trigger_pc == 0x777
        assert pf._ft[0x10].trigger_offset == 5

    def test_ft_capacity(self):
        pf = SMS(SmsConfig(ft_entries=4))
        for region in range(10):
            access(pf, 0x400, region, 0)
        assert len(pf._ft) <= 4

    def test_at_eviction_stores_to_pht(self):
        pf = SMS(SmsConfig(at_entries=2))
        for region in range(5):
            access(pf, 0x400, region, 1)
            access(pf, 0x404, region, 2)  # promote
        # Regions 0-2 left the AT: one pattern under their one signature.
        stored = [pattern for pht_set in pf._pht for pattern in pht_set.values()]
        assert stored == [(1 << 1) | (1 << 2)]

    def test_single_access_regions_not_stored(self):
        pf = SMS(SmsConfig(at_entries=2))
        for region in range(8):
            access(pf, 0x400, region, 1)
            access(pf, 0x400, region, 1)  # promoted, still one line touched
        assert not any(pf._pht)


class TestPrediction:
    def test_learned_layout_predicts_on_trigger(self):
        pf = SMS()
        teach_layout(pf, 0x400, range(0x100, 0x110), offsets=[2, 5, 9])
        cands = access(pf, 0x400, 0x999, 2)
        offsets = sorted(c.line_addr & 31 for c in cands)
        assert offsets == [5, 9]  # trigger bit itself excluded

    def test_candidates_in_trigger_region(self):
        pf = SMS()
        teach_layout(pf, 0x400, range(0x100, 0x110), offsets=[2, 5, 9])
        cands = access(pf, 0x400, 0x999, 2)
        for cand in cands:
            assert cand.line_addr >> 5 == 0x999

    def test_signature_includes_offset(self):
        """A different trigger offset misses the PHT — the SMS weakness
        DSPatch's anchoring removes."""
        pf = SMS()
        teach_layout(pf, 0x400, range(0x100, 0x110), offsets=[2, 5, 9])
        assert access(pf, 0x400, 0x999, 3) == ()

    def test_signature_includes_pc(self):
        pf = SMS()
        teach_layout(pf, 0x400, range(0x100, 0x110), offsets=[2, 5, 9])
        assert access(pf, 0x500, 0x999, 2) == ()

    def test_pht_hit_replays_and_refreshes_the_pattern(self):
        pf = SMS()
        teach_layout(pf, 0x400, range(0x100, 0x110), offsets=[2, 5, 9])
        pattern = (1 << 2) | (1 << 5) | (1 << 9)
        pht_set, tag = pf._pht_locate(pf._signature(0x400, 2))
        assert pht_set[tag] == pattern
        cands = access(pf, 0x400, 0x999, 2)
        assert [c.line_addr for c in cands] == [(0x999 << 5) + 5, (0x999 << 5) + 9]
        # The hit moved the pattern to its set's MRU position.
        assert list(pht_set.items())[-1] == (tag, pattern)


class TestCapacity:
    def test_small_pht_forgets_old_signatures(self):
        """The Figure 5 effect: a 256-entry PHT thrashes under many
        signatures while 16K retains them."""
        small = sms_with_pht_entries(256)
        big = sms_with_pht_entries(16384)
        num_sigs = 2000
        for pf in (small, big):
            # Each signature triggers one region (its first region is the
            # previous one's second, still in the AT); AT evictions store
            # all but the last at_entries of them.
            for sig_id in range(num_sigs):
                pc = 0x1000 + 8 * sig_id
                for region in (0x100 + sig_id, 0x100 + sig_id + 1):
                    access(pf, pc, region, 1)
                    access(pf, pc, region, 4)
        hits_small = sum(
            1 for sig_id in range(num_sigs) if access(small, 0x1000 + 8 * sig_id, 0x9000 + sig_id, 1)
        )
        hits_big = sum(
            1 for sig_id in range(num_sigs) if access(big, 0x1000 + 8 * sig_id, 0xA000 + sig_id, 1)
        )
        assert hits_big > hits_small

    def test_pht_set_associativity_respected(self):
        pf = SMS(SmsConfig(pht_entries=32, pht_ways=4))
        for pht_set in pf._pht:
            assert len(pht_set) <= 4

    def test_storage_sweep_sizes(self):
        assert sms_with_pht_entries(16384).storage_kb() > 80  # paper: 88KB
        assert sms_with_pht_entries(256).storage_kb() < 5  # paper: ~3.5KB

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            SMS(SmsConfig(pht_entries=100, pht_ways=16)).config.pht_sets

    @pytest.mark.parametrize("field", ("at_entries", "ft_entries"))
    def test_rejects_empty_tables(self, field):
        """An empty AT or FT would raise ``StopIteration`` at its first
        insert."""
        with pytest.raises(ValueError):
            SMS(SmsConfig(**{field: 0}))

    def test_reset(self):
        pf = SMS()
        teach_layout(pf, 0x400, range(0x100, 0x110), offsets=[2, 5])
        pf.reset()
        assert access(pf, 0x400, 0x999, 2) == ()


@pytest.mark.parametrize("region_bytes", (0, 32))
def test_rejects_regions_under_one_line(region_bytes):
    """A region under one line passes the power-of-two check (0 too) but
    has no line offsets: 32 B regions made every pattern ``1 << line``,
    and 0 B ones raised at the first ``train``."""
    with pytest.raises(ValueError):
        SMS(SmsConfig(region_bytes=region_bytes))
