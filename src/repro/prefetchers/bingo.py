"""Bingo spatial data prefetcher (simplified).

Bingo [26] (Bakhshalipour et al., HPCA'19) is the most recent bit-pattern
prefetcher the paper compares against in Section 6: it fuses a *long*
event (PC + full region address) and a *short* event (PC + region offset)
into a single pattern-history table.  Lookup tries the precise long event
first and falls back to the short event, so one table gets the accuracy
of address correlation where history exists and the generalization of
offset correlation where it does not.

The paper's criticism — Bingo "still consumes over 100KB of area" — is
visible in :meth:`storage_breakdown`: region-address tags plus
uncompressed per-region patterns dwarf DSPatch's 3.6KB.

This implementation keeps Bingo's published structure (accumulation
table + pattern history keyed by both events) at a configurable scale;
the default approximates the original's 2KB regions and 16K-entry
history.
"""

from dataclasses import dataclass

from repro.constants import LINE_SHIFT, LINE_SIZE
from repro.prefetchers.base import PrefetchCandidate, Prefetcher


@dataclass(frozen=True)
class BingoConfig:
    """Bingo structure sizes (scaled from the HPCA'19 configuration)."""

    region_bytes: int = 2048
    at_entries: int = 64
    pht_entries: int = 16384
    pht_ways: int = 16

    @property
    def lines_per_region(self):
        return self.region_bytes // 64

    @property
    def pht_sets(self):
        sets = self.pht_entries // self.pht_ways
        if sets <= 0 or sets & (sets - 1):
            raise ValueError("PHT sets must be a positive power of two")
        return sets


class _RegionEntry:
    __slots__ = ("pattern", "trigger_pc", "trigger_offset", "region")

    def __init__(self, region, trigger_pc, trigger_offset):
        self.region = region
        self.pattern = 1 << trigger_offset
        self.trigger_pc = trigger_pc
        self.trigger_offset = trigger_offset


class Bingo(Prefetcher):
    """Bingo: dual-event (long/short) bit-pattern prefetcher."""

    name = "bingo"

    def __init__(self, config: BingoConfig = BingoConfig()):
        self.config = config
        region = config.region_bytes
        if region < LINE_SIZE or region & (region - 1):
            raise ValueError("region size must be a power of two of at least one line")
        self._region_shift = region.bit_length() - 1
        self._offset_mask = config.lines_per_region - 1
        self._at = {}  # region -> _RegionEntry, dict order = LRU order
        # One PHT, two key spaces: entries are keyed by the long event
        # (PC + region address) and shadowed by the short event
        # (PC + offset).  The short index keeps the *most recent* pattern
        # for that event, which is Bingo's fallback semantics.
        self._pht_long = [dict() for _ in range(config.pht_sets)]
        self._pht_short = {}

    # -- events ------------------------------------------------------------------

    def _long_event(self, pc, region):
        return ((pc << 7) ^ region) & 0xFFFFFFFFFF

    def _short_event(self, pc, offset):
        return ((pc << 5) ^ offset) & 0xFFFFFFFF

    def _pht_locate(self, long_key):
        set_idx = long_key & (self.config.pht_sets - 1)
        tag = long_key >> (self.config.pht_sets - 1).bit_length()
        return self._pht_long[set_idx], tag

    # -- training -----------------------------------------------------------------

    def train(self, cycle, pc, addr, hit):
        line = addr >> LINE_SHIFT
        region = addr >> self._region_shift
        offset = line & self._offset_mask

        entry = self._at.get(region)
        if entry is not None:
            entry.pattern |= 1 << offset
            self._at[region] = self._at.pop(region)  # refresh LRU position
            return ()

        pattern, match = self._lookup(pc, offset, region)
        candidates = () if pattern is None else self._replay(pattern, offset, region)
        if self.trace_emit is not None:
            # The scheme's core decision: which event matched the PHT — the
            # precise long event (PC+address) or the short fallback
            # (PC+offset) — and how wide the replayed footprint is.
            self.trace_emit(
                cycle,
                self.name,
                f"match={match} region={region:#x} cands={len(candidates)}",
            )
        if len(self._at) >= self.config.at_entries:
            victim_region, victim = next(iter(self._at.items()))
            del self._at[victim_region]
            self._store(victim)
        self._at[region] = _RegionEntry(region, pc, offset)
        return candidates

    def _store(self, entry):
        if entry.pattern.bit_count() < 2:
            return
        long_key = self._long_event(entry.trigger_pc, entry.region)
        pht_set, tag = self._pht_locate(long_key)
        if tag in pht_set:
            del pht_set[tag]
        elif len(pht_set) >= self.config.pht_ways:
            del pht_set[next(iter(pht_set))]
        pht_set[tag] = entry.pattern
        # The short event shadows the long entries; bounded by the same
        # entry budget (modelled as a capped dict).
        short_key = self._short_event(entry.trigger_pc, entry.trigger_offset)
        if short_key in self._pht_short:
            del self._pht_short[short_key]
        elif len(self._pht_short) >= self.config.pht_entries:
            del self._pht_short[next(iter(self._pht_short))]
        self._pht_short[short_key] = entry.pattern

    # -- prediction ------------------------------------------------------------------

    def _lookup(self, pc, offset, region):
        """A trigger's PHT pattern (``None`` when neither event matches)
        and which event matched: ``"long"``, ``"short"`` or ``"none"``."""
        pht_set, tag = self._pht_locate(self._long_event(pc, region))
        pattern = pht_set.get(tag)
        if pattern is not None:
            return pattern, "long"
        pattern = self._pht_short.get(self._short_event(pc, offset))
        return pattern, "none" if pattern is None else "short"

    def _replay(self, pattern, offset, region):
        """The candidates a pattern replays for a trigger at ``offset`` of
        ``region``: every set bit but the trigger's."""
        region_base_line = region << (self._region_shift - LINE_SHIFT)
        return [
            PrefetchCandidate(region_base_line + bit)
            for bit in range(self.config.lines_per_region)
            if bit != offset and (pattern >> bit) & 1
        ]

    # -- storage --------------------------------------------------------------------

    def storage_breakdown(self):
        cfg = self.config
        pattern_bits = cfg.lines_per_region
        # Long-event tags are wide (PC hash + region address bits).
        pht_bits = cfg.pht_entries * (30 + pattern_bits)
        short_bits = cfg.pht_entries * 16  # short-event shadow index
        at_bits = cfg.at_entries * (26 + pattern_bits + 16 + 5)
        return {
            "pattern-history-table": pht_bits,
            "short-event-index": short_bits,
            "accumulation-table": at_bits,
        }

    def reset(self):
        self._at = {}
        self._pht_long = [dict() for _ in range(self.config.pht_sets)]
        self._pht_short = {}
