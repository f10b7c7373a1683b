"""Spatial Memory Streaming (SMS).

SMS [73] (Section 2.3) is the classic bit-pattern prefetcher DSPatch is
measured against.  Per Table 3: 2KB regions, a 64-entry Accumulation Table
(AT), a 32-entry Filter Table (FT) and a 16K-entry, 16-way Pattern History
Table (PHT) keyed by the (trigger PC, trigger offset) signature.

Flow: the first access to an untracked region is its *trigger*; the region
enters the FT.  A second (distinct) access promotes it to the AT, which
accumulates the region's access bit-pattern.  When an AT entry is evicted,
its pattern is stored in the PHT under the trigger signature.  A trigger
whose signature hits in the PHT prefetches every set bit of the stored
pattern (the offset is part of the signature, so patterns are
region-absolute — unlike DSPatch's anchored patterns, SMS needs the offset
in the signature, which multiplies its storage; Figure 5 shows how its
performance collapses when the PHT shrinks toward DSPatch's budget).
"""

from dataclasses import dataclass

from repro.constants import LINE_SHIFT, LINE_SIZE
from repro.prefetchers.base import PrefetchCandidate, Prefetcher


@dataclass(frozen=True)
class SmsConfig:
    """SMS structure sizes; defaults are the paper's 88KB configuration."""

    region_bytes: int = 2048
    at_entries: int = 64
    ft_entries: int = 32
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
    __slots__ = ("pattern", "trigger_pc", "trigger_offset")

    def __init__(self, trigger_pc, trigger_offset):
        self.pattern = 1 << trigger_offset
        self.trigger_pc = trigger_pc
        self.trigger_offset = trigger_offset


class SMS(Prefetcher):
    """Spatial Memory Streaming (Somogyi et al., ISCA'06)."""

    name = "sms"

    def __init__(self, config: SmsConfig = SmsConfig()):
        self.config = config
        region = config.region_bytes
        if region < LINE_SIZE or region & (region - 1):
            raise ValueError("region size must be a power of two of at least one line")
        if config.at_entries < 1 or config.ft_entries < 1:
            raise ValueError("SMS needs at least one AT and one FT entry")
        self._region_shift = region.bit_length() - 1
        self._offset_mask = config.lines_per_region - 1
        self._at = {}  # region -> _RegionEntry, dict order = LRU order
        self._ft = {}  # region -> _RegionEntry
        self._pht = [dict() for _ in range(config.pht_sets)]  # sig tag -> pattern

    # -- signature ---------------------------------------------------------------

    def _signature(self, pc, offset):
        return ((pc << 5) ^ (pc >> 11) ^ offset) & 0xFFFFFFFF

    def _pht_locate(self, signature):
        set_idx = signature & (self.config.pht_sets - 1)
        tag = signature >> (self.config.pht_sets - 1).bit_length()
        return self._pht[set_idx], tag

    def _pht_store(self, entry):
        if entry.pattern.bit_count() < 2:
            # A region touched once carries no spatial information.
            return
        signature = self._signature(entry.trigger_pc, entry.trigger_offset)
        pht_set, tag = self._pht_locate(signature)
        if tag in pht_set:
            del pht_set[tag]  # refresh LRU position
        elif len(pht_set) >= self.config.pht_ways:
            oldest = next(iter(pht_set))
            del pht_set[oldest]
        pht_set[tag] = entry.pattern

    def _pht_lookup(self, pc, offset):
        signature = self._signature(pc, offset)
        pht_set, tag = self._pht_locate(signature)
        pattern = pht_set.get(tag)
        if pattern is not None:
            # Refresh LRU position.
            del pht_set[tag]
            pht_set[tag] = pattern
        return pattern

    # -- training -----------------------------------------------------------------

    def train(self, cycle, pc, addr, hit):
        line = addr >> LINE_SHIFT
        region = addr >> self._region_shift
        offset = line & self._offset_mask

        entry = self._at.get(region)
        if entry is not None:
            entry.pattern |= 1 << offset
            del self._at[region]  # refresh LRU position
            self._at[region] = entry
            return ()

        entry = self._ft.pop(region, None)
        if entry is not None:
            entry.pattern |= 1 << offset
            self._promote(region, entry)
            return ()

        # Trigger access to a fresh region.
        pattern = self._pht_lookup(pc, offset)
        candidates = () if pattern is None else self._replay(pattern, offset, region)
        if self.trace_emit is not None:
            # The scheme's core decision: a fresh-region trigger either
            # replays a recorded PHT pattern or starts cold.
            self.trace_emit(
                cycle,
                self.name,
                f"trigger region={region:#x} pht={'miss' if pattern is None else 'hit'} "
                f"cands={len(candidates)}",
            )
        self._ft_insert(region, _RegionEntry(pc, offset))
        return candidates

    def _promote(self, region, entry):
        if len(self._at) >= self.config.at_entries:
            old_region, old_entry = next(iter(self._at.items()))
            del self._at[old_region]
            self._pht_store(old_entry)
        self._at[region] = entry

    def _ft_insert(self, region, entry):
        if len(self._ft) >= self.config.ft_entries:
            oldest = next(iter(self._ft))
            del self._ft[oldest]
        self._ft[region] = entry

    def _replay(self, pattern, offset, region):
        """The candidates a PHT pattern replays for a trigger at ``offset``
        of ``region``: every set bit but the trigger's."""
        region_base_line = region << (self._region_shift - LINE_SHIFT)
        out = []
        for bit in range(self.config.lines_per_region):
            if bit != offset and (pattern >> bit) & 1:
                out.append(PrefetchCandidate(region_base_line + bit))
        return out

    # -- storage ---------------------------------------------------------------------

    def storage_breakdown(self):
        cfg = self.config
        pattern_bits = cfg.lines_per_region
        at_bits = cfg.at_entries * (26 + pattern_bits + 16 + 5)
        ft_bits = cfg.ft_entries * (26 + 16 + 5)
        pht_bits = cfg.pht_entries * (16 + pattern_bits)
        return {
            "accumulation-table": at_bits,
            "filter-table": ft_bits,
            "pattern-history-table": pht_bits,
        }

    def reset(self):
        self._at = {}
        self._ft = {}
        self._pht = [dict() for _ in range(self.config.pht_sets)]


def sms_with_pht_entries(entries):
    """SMS sized to ``entries`` PHT entries (Figure 5 sweep / iso-storage).

    Associativity is kept at 16 ways where possible (the paper's sweep is
    '16K entries, 16-way' shrunk by entry count).
    """
    ways = 16 if entries >= 16 else entries
    return SMS(SmsConfig(pht_entries=entries, pht_ways=ways))
