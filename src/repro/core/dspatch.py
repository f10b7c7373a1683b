"""DSPatch — the Dual Spatial Pattern Prefetcher (Section 3).

Put together from the pieces in this package:

1. Training accesses (L1 misses, Section 4.1) accumulate into the
   :class:`~repro.core.page_buffer.PageBuffer` (Figure 7, step 1).
2. The first access to each 2KB segment of a page is a *trigger*
   (step 2): its folded PC indexes the
   :class:`~repro.core.spt.SignaturePredictionTable`, retrieving the dual
   modulated patterns and their goodness measures (step 3).
3. :func:`~repro.core.selection.select_pattern` picks CovP or AccP using
   the broadcast 2-bit bandwidth-utilization value (step 4, Figure 10);
   the chosen anchored pattern is rotated to the trigger offset and each
   set 128B bit expands to two 64B line prefetches (Section 3.8).
4. On PB eviction (step 5) the observed pattern is compressed, anchored
   per trigger, and folded into the SPT via
   :meth:`~repro.core.spt.SptEntry.update_half` — ORs grow CovP, the AND
   rewrites AccP, and the Measure counters track goodness (Section 3.6).

A segment-0 trigger predicts both 16-bit halves (the full 4KB page); a
segment-1 trigger predicts only its first half — the 2KB region relative
to the trigger (Section 3.7).

Design-choice knobs, all :class:`DSPatchConfig` fields (Figure 19 and
the ablation benches exercise these):

- ``compressed=False`` stores uncompressed 64-bit patterns at 64B
  granularity, doubling SPT pattern storage (the Section 3.8 trade-off);
- ``covp_reset=False`` drops Section 3.6's CovP relearn rule;
- ``selection`` is Figure 10's dual-pattern selection (``"dual"``) or
  one of Section 5.5's ablations that never use AccP: AlwaysCovP
  (``"covp"``) and ModCovP (``"modcovp"``);
- ``anchored=False`` stores page-absolute patterns instead of
  trigger-anchored ones (the Figure 2 claim);
- ``segment1_trigger=False`` allows only the segment-0 trigger per 4KB
  page (the Section 3.7 claim).

This class is also the *executable spec* for a compiled training twin:
``kernel/c/dspatch.c`` is a C transliteration of ``train`` (PB
insert/evict, SPT dual-pattern update, bandwidth-bucketed pattern select)
that reads every config value but ``compressed`` from flat-state slots,
declared with the twin's tables by the DSPatch record in
:mod:`repro.kernel.layout`.  It is selected at run time by
``kernel/state.py:_scheme_kind`` for instances of the exact class with
compressed patterns, alone or as a component of a twinned composite
(``spp+dspatch``, ``spp+alwayscovp``, ``spp+bop+dspatch``), and pinned
bit-identical by ``tests/test_kernel_parity.py`` and
``tests/test_twin_fuzz.py``.  A subclass keeps the Python crossing.
Behavioral edits here must be mirrored in the C twin.
"""

from dataclasses import dataclass

from repro.constants import (
    COMPRESSED_BITS_PER_PAGE,
    LINE_SHIFT,
    LINES_PER_PAGE,
    LINES_PER_SEGMENT,
    PAGE_SHIFT,
)

# Address-geometry shifts/masks used in the inlined hot path below,
# derived from the constants module so a geometry change propagates.
_LINE_OFF_MASK = LINES_PER_PAGE - 1
_SEGMENT_SHIFT = LINES_PER_SEGMENT.bit_length() - 1
from repro.core.bitpattern import anchor_pattern, compress_pattern, unanchor_pattern
from repro.core.page_buffer import PageBuffer
from repro.core.selection import NO_PREFETCH, select_pattern
from repro.core.spt import SignaturePredictionTable, fold_xor_hash
from repro.prefetchers.base import PrefetchCandidate, Prefetcher


#: ``DSPatchConfig.selection``'s values, in the order of the twin's
#: ``dp_selection`` slot.
SELECTIONS = ("dual", "covp", "modcovp")


@dataclass(frozen=True)
class DSPatchConfig:
    """DSPatch structure sizes (Table 1 configuration) and the switches
    of its ablations."""

    pb_entries: int = 64
    spt_entries: int = 256
    pc_signature_bits: int = 8
    #: Cap on prefetches emitted per trigger.  The paper sets no explicit
    #: limit — a segment-0 trigger may predict the whole 4KB page (two
    #: lines per compressed bit = up to 62 lines); the prefetch queue in
    #: the hierarchy provides the physical bound.
    max_candidates_per_trigger: int = 62
    #: Store patterns at 128B granularity (Section 3.8).  ``False`` keeps
    #: full 64B-granularity patterns — double the SPT pattern storage, no
    #: compression-induced overprediction (the ablation of Figure 11).
    compressed: bool = True
    #: Section 3.6's CovP relearn-from-scratch rule.  ``False`` disables
    #: it (the no-reset ablation): stale patterns from a finished program
    #: phase are never replaced.
    covp_reset: bool = True
    #: Figure 10's pattern selection (``"dual"``), or a Section 5.5
    #: ablation that never uses AccP: ``"covp"`` (AlwaysCovP) takes CovP
    #: at every bucket, at low priority when MeasureCovP is saturated;
    #: ``"modcovp"`` (ModCovP) is Figure 10 with every AccP choice
    #: suppressed.
    selection: str = "dual"
    #: Section 3.3's trigger anchoring.  ``False`` learns and predicts
    #: page-absolute patterns (the Figure 2 ablation).
    anchored: bool = True
    #: Section 3.7's second trigger.  ``False`` lets only segment 0 of a
    #: page trigger.
    segment1_trigger: bool = True


class DSPatch(Prefetcher):
    """The Dual Spatial Pattern Prefetcher."""

    name = "dspatch"

    def __init__(self, bandwidth, config: DSPatchConfig = None):
        # A fresh config per instance: sharing one default instance across
        # prefetchers is safe only while DSPatchConfig stays frozen — a
        # mutable-default trap for any future field, so avoid the pattern.
        config = config if config is not None else DSPatchConfig()
        if config.pc_signature_bits < 1:
            # fold_xor_hash folds the PC by this many bits per step.
            raise ValueError("pc_signature_bits must be at least 1")
        if config.selection not in SELECTIONS:
            raise ValueError(f"selection must be one of {SELECTIONS}")
        self.config = config
        self.bandwidth = bandwidth
        # Pattern geometry: one stored bit covers 2 lines (128B) in the
        # compressed default, 1 line (64B) in the uncompressed ablation.
        self._comp_shift = 1 if config.compressed else 0
        self._bits_per_page = (
            COMPRESSED_BITS_PER_PAGE if config.compressed else LINES_PER_PAGE
        )
        self._half_bits = self._bits_per_page // 2
        self._half_mask = (1 << self._half_bits) - 1
        self.page_buffer = PageBuffer(config.pb_entries)
        self.spt = SignaturePredictionTable(
            config.spt_entries, self._bits_per_page, config.covp_reset
        )
        self.predictions_covp = 0
        self.predictions_accp = 0
        self.predictions_suppressed = 0

    # ------------------------------------------------------------ training

    def train(self, cycle, pc, addr, hit):
        # Inlined page_number / line_offset_in_page / segment_of_line_offset
        # (one call per training access).
        page = addr >> PAGE_SHIFT
        line_off = (addr >> LINE_SHIFT) & _LINE_OFF_MASK
        segment = line_off >> _SEGMENT_SHIFT

        # Inlined PageBuffer.get (dict pop + reinsert refreshes LRU order;
        # couples to PageBuffer's dict-ordered storage by design).
        pages = self.page_buffer._pages
        entry = pages.pop(page, None)
        candidates = ()
        if entry is not None:
            pages[page] = entry
        else:
            entry, evicted = self.page_buffer.insert(page)
            if evicted is not None:
                self._learn(cycle, evicted)
        if entry.triggers[segment] is None and (segment == 0 or self.config.segment1_trigger):
            signature = fold_xor_hash(pc, self.config.pc_signature_bits)
            entry.set_trigger(segment, signature, line_off)
            candidates = self._predict(cycle, signature, page, line_off, segment)
        entry.pattern |= 1 << line_off
        return candidates

    # ------------------------------------------------------------ prediction

    def _select(self, cycle, spt_entry, half):
        """One half's pattern choice: Figure 10, or the ablation that
        ``config.selection`` names."""
        covp_saturated = spt_entry.covp_saturated(half)
        selection = self.config.selection
        if selection == "covp":
            # Figure 10's low-utilization branch at every bucket, with no
            # bucket read: a read closes the monitor's elapsed windows.
            return select_pattern(0, covp_saturated, False)
        choice = select_pattern(
            self.bandwidth.bucket(cycle), covp_saturated, spt_entry.accp_saturated(half)
        )
        if selection == "modcovp" and choice.pattern == "acc":
            return NO_PREFETCH
        return choice

    def _predict(self, cycle, signature, page, trigger_line_off, segment):
        spt_entry = self.spt.lookup_by_signature(signature)
        trigger_bit = trigger_line_off >> self._comp_shift

        # Segment-0 triggers predict the whole page (both anchored halves);
        # segment-1 triggers predict only the 2KB region from the trigger
        # (anchored half 0).  Section 3.7.
        halves = (0, 1) if segment == 0 else (0,)
        pattern = 0
        low_priority = False
        trace_emit = self.trace_emit
        for half in halves:
            choice = self._select(cycle, spt_entry, half)
            if trace_emit is not None:
                # The paper's core decision (Figure 10): which dual pattern
                # drives this trigger, under which bandwidth bucket.
                trace_emit(
                    cycle,
                    self.name,
                    f"select={choice.pattern or 'none'} half={half} "
                    f"bw={self.bandwidth.bucket(cycle)}",
                )
            if choice.pattern == "cov":
                chunk = spt_entry.covp_half(half)
                self.predictions_covp += 1
            elif choice.pattern == "acc":
                chunk = spt_entry.accp_half(half)
                self.predictions_accp += 1
            else:
                self.predictions_suppressed += 1
                continue
            low_priority = low_priority or choice.low_priority
            pattern |= (chunk & self._half_mask) << (half * self._half_bits)

        if pattern == 0:
            return ()
        if self.config.anchored:
            pattern = unanchor_pattern(pattern, trigger_bit, self._bits_per_page)
        # The trigger's own line needs no prefetch, but its 128B companion
        # (the other line of the trigger's compressed bit) does; _expand
        # skips exactly the trigger line.
        return self._expand(page, pattern, trigger_line_off, low_priority)

    def _expand(self, page, page_pattern, trigger_line_off, low_priority):
        """Expand stored page-absolute bits into 64B line prefetches.

        Iterates set bits directly (``while p: lsb = p & -p``) rather than
        scanning all 64 positions; the LSB-first walk preserves the
        ascending line order (and the per-trigger cap cutoff) of a full
        positional scan.
        """
        base_line = page << 6
        comp_shift = self._comp_shift
        lines_per_bit = 1 << comp_shift
        out = []
        append = out.append
        cap = self.config.max_candidates_per_trigger
        p = page_pattern & ((1 << self._bits_per_page) - 1)
        while p:
            lsb = p & -p
            p ^= lsb
            first_line = (lsb.bit_length() - 1) << comp_shift
            for line_off in range(first_line, first_line + lines_per_bit):
                if line_off == trigger_line_off:
                    continue
                append(PrefetchCandidate(base_line + line_off, low_priority))
                if len(out) >= cap:
                    return out
        return out

    # ------------------------------------------------------------- learning

    def _observed_pattern(self, pb_pattern):
        """The PB's 64-line observation at this instance's granularity."""
        if self.config.compressed:
            return compress_pattern(pb_pattern, LINES_PER_PAGE)
        return pb_pattern

    def _learn(self, cycle, pb_entry):
        program = self._observed_pattern(pb_entry.pattern)
        bw_bucket = self.bandwidth.bucket(cycle)
        for segment, trigger in enumerate(pb_entry.triggers):
            if trigger is None:
                continue
            signature, trigger_line_off = trigger
            pattern = program
            if self.config.anchored:
                trigger_bit = trigger_line_off >> self._comp_shift
                pattern = anchor_pattern(program, trigger_bit, self._bits_per_page)
            spt_entry = self.spt.lookup_by_signature(signature)
            halves = (0, 1) if segment == 0 else (0,)
            for half in halves:
                program_half = (pattern >> (half * self._half_bits)) & self._half_mask
                spt_entry.update_half(half, program_half, bw_bucket)

    # -------------------------------------------------------------- storage

    def storage_breakdown(self):
        return {
            "page-buffer": self.page_buffer.storage_bits(),
            "signature-prediction-table": self.spt.storage_bits(),
        }

    def reset(self):
        self.page_buffer = PageBuffer(self.config.pb_entries)
        self.spt = SignaturePredictionTable(
            self.config.spt_entries, self._bits_per_page, self.config.covp_reset
        )

