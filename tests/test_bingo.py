"""Tests for the Bingo (dual-event bit-pattern) prefetcher."""

import pytest

from repro.prefetchers.bingo import Bingo, BingoConfig


def matches(pf):
    """The ``match=`` of each Bingo trigger event from now on."""
    infos = []
    pf.attach_trace(lambda cycle, name, info: infos.append(info))
    return infos


def visit_region(pf, region, offsets, pc=0x400, start=0):
    """Access a 2KB region at the given line offsets; returns candidates."""
    out = []
    for i, off in enumerate(offsets):
        addr = (region << 11) | (off << 6)
        out.extend(pf.train(start + i * 40, pc, addr, hit=False))
    return out


def teach(pf, offsets, pc=0x400, regions=range(0x100, 0x160)):
    """Train the same layout across more regions than the AT holds, so
    AT evictions store patterns."""
    assert len(regions) > pf.config.at_entries
    for region in regions:
        visit_region(pf, region, offsets, pc=pc)


class TestConfig:
    def test_rejects_non_power_of_two_region(self):
        with pytest.raises(ValueError):
            Bingo(BingoConfig(region_bytes=1500))

    def test_storage_exceeds_100kb(self):
        """The paper's criticism: 'Bingo still consumes over 100KB'."""
        assert Bingo().storage_kb() > 100.0

    def test_lines_per_region(self):
        assert BingoConfig().lines_per_region == 32


class TestPrediction:
    LAYOUT = [3, 7, 11, 19]

    def test_short_event_generalizes_to_new_region(self):
        pf = Bingo()
        teach(pf, self.LAYOUT)
        infos = matches(pf)
        cands = pf.train(10**6, 0x400, (0x9999 << 11) | (3 << 6), hit=False)
        assert sorted(c.line_addr & 31 for c in cands) == [7, 11, 19]
        assert infos == ["match=short region=0x9999 cands=3"]

    def test_long_event_hits_on_revisited_region(self):
        pf = Bingo()
        teach(pf, self.LAYOUT, regions=range(0x100, 0x180))
        # Revisit a trained region: the long (PC+address) event matches.
        infos = matches(pf)
        cands = pf.train(10**6, 0x400, (0x100 << 11) | (3 << 6), hit=False)
        assert infos == ["match=long region=0x100 cands=3"]
        assert cands

    def test_trigger_line_excluded(self):
        pf = Bingo()
        teach(pf, self.LAYOUT)
        cands = pf.train(10**6, 0x400, (0x9999 << 11) | (3 << 6), hit=False)
        assert all((c.line_addr & 31) != 3 for c in cands)

    def test_single_access_regions_not_stored(self):
        pf = Bingo()
        for region in range(0x100, 0x180):  # twice the AT: 64 evictions
            visit_region(pf, region, [5])
        assert pf.train(10**6, 0x400, (0x9999 << 11) | (5 << 6), hit=False) == ()

    def test_unknown_pc_predicts_nothing(self):
        pf = Bingo()
        teach(pf, self.LAYOUT, pc=0x400)
        assert pf.train(10**6, 0xBEEF, (0x9999 << 11) | (3 << 6), hit=False) == ()


class TestCapacity:
    def test_at_bounded(self):
        pf = Bingo(BingoConfig(at_entries=8))
        for region in range(64):
            visit_region(pf, region, [1, 2])
        assert len(pf._at) <= 8

    def test_reset_clears_tables(self):
        pf = Bingo()
        teach(pf, [1, 2, 3])
        pf.reset()
        assert pf.train(0, 0x400, (0x100 << 11) | (1 << 6), hit=False) == ()


@pytest.mark.parametrize("region_bytes", (0, 32))
def test_rejects_regions_under_one_line(region_bytes):
    """A region under one line passes the power-of-two check (0 too) but
    has no line offsets: 32 B regions made every pattern ``1 << line``,
    and 0 B ones raised at the first ``train``."""
    with pytest.raises(ValueError):
        Bingo(BingoConfig(region_bytes=region_bytes))
