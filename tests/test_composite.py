"""Tests for adjunct prefetcher composition (Section 5.1's configurations)."""

import pytest

from repro.memory.dram import FixedBandwidth
from repro.prefetchers.base import PrefetchCandidate, Prefetcher
from repro.prefetchers.composite import CompositePrefetcher


class Recorder(Prefetcher):
    """Emits scripted candidates and records every callback."""

    def __init__(self, name, lines=()):
        self.name = name
        self.lines = list(lines)
        self.trained = 0
        self.useful = []
        self.useless = []
        self.resets = 0

    def train(self, cycle, pc, addr, hit):
        self.trained += 1
        return [PrefetchCandidate(line) for line in self.lines]

    def note_useful_prefetch(self, cycle, line_addr):
        self.useful.append(line_addr)

    def note_useless_prefetch(self, cycle, line_addr):
        self.useless.append(line_addr)

    def reset(self):
        self.resets += 1

    def storage_breakdown(self):
        return {"table": 64}


class TestConstruction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            CompositePrefetcher([])

    def test_name_joins_components(self):
        combo = CompositePrefetcher([Recorder("a"), Recorder("b")])
        assert combo.name == "a+b"

    def test_explicit_name_wins(self):
        combo = CompositePrefetcher([Recorder("a")], name="custom")
        assert combo.name == "custom"


class TestArbitration:
    def test_earlier_component_wins_duplicates(self):
        first = Recorder("first", lines=[10, 20])
        second = Recorder("second", lines=[20, 30])
        combo = CompositePrefetcher([first, second])
        out = combo.train(0, 0, 0, False)
        assert [c.line_addr for c in out] == [10, 20, 30]

    def test_all_components_train_every_access(self):
        parts = [Recorder("a"), Recorder("b"), Recorder("c")]
        combo = CompositePrefetcher(parts)
        for i in range(5):
            combo.train(i, 0, i << 6, False)
        assert all(p.trained == 5 for p in parts)

    def test_low_priority_preserved_from_winner(self):
        class LowPri(Recorder):
            def train(self, cycle, pc, addr, hit):
                return [PrefetchCandidate(42, low_priority=True)]

        combo = CompositePrefetcher([LowPri("lp"), Recorder("n", lines=[42])])
        out = combo.train(0, 0, 0, False)
        assert len(out) == 1 and out[0].low_priority


class TestCallbacks:
    def test_feedback_broadcast(self):
        parts = [Recorder("a"), Recorder("b")]
        combo = CompositePrefetcher(parts)
        combo.note_useful_prefetch(0, 7)
        combo.note_useless_prefetch(0, 9)
        for p in parts:
            assert p.useful == [7] and p.useless == [9]

    def test_reset_broadcast(self):
        parts = [Recorder("a"), Recorder("b")]
        combo = CompositePrefetcher(parts)
        combo.reset()
        assert all(p.resets == 1 for p in parts)


class TestPaperConfigurations:
    @pytest.mark.parametrize(
        "scheme", ["spp+dspatch", "spp+bop", "spp+sms-256", "spp+bop+dspatch"]
    )
    def test_paper_composites_build_and_train(self, scheme):
        from repro.prefetchers.registry import build_prefetcher

        combo = build_prefetcher(scheme, FixedBandwidth(0))
        for i in range(300):
            combo.train(i * 30, 0x400, ((0x10 + i // 64) << 12) | ((i % 64) << 6), False)
        assert combo.storage_bits() > 0
