"""Signature Pattern Prefetcher (SPP) and its bandwidth-aware variant eSPP.

SPP [54] (Section 2.1) is the state-of-the-art delta prefetcher the paper
baselines against.  Structures per Table 3: a 256-entry Signature Table
(per-page compressed delta-history signature), a 512-entry Pattern Table
(signature -> up to four candidate deltas with confidence counters), an
8-entry Global History Register for cross-page bootstrap, and global
feedback counters.

Key mechanism: *lookahead with cascaded confidence*.  From the current
signature, every stored delta whose cascaded confidence (product of the
per-level ``c_delta / c_sig`` ratios) clears the prefetch threshold is
prefetched; the highest-confidence delta advances the speculative signature
one level deeper, until confidence decays below the threshold.

eSPP (Section 2.5) lowers the confidence threshold from 25% to 12.5% when
more than half the DRAM bandwidth is unused — the paper's strawman
bandwidth-aware tuning of SPP, shown in Figure 6 to scale poorly.

This module is also the *executable spec* for the compiled training twin:
``kernel/c/spp.c`` is a C transliteration of ``train`` (including
``_lookahead``'s float arithmetic in this exact operation order) that
reads every ``SppConfig`` value from flat-state slots, declared with
the twin's tables by the SPP and eSPP records in
:mod:`repro.kernel.layout`.  It is selected at run time by
``kernel/state.py:_scheme_kind`` for SPP and eSPP instances of any
config with a GHR entry, alone or as a component of a twinned
composite, and pinned bit-identical by
``tests/test_kernel_parity.py`` and ``tests/test_twin_fuzz.py``.
Behavioral edits here must be mirrored in the C twin.
"""

from dataclasses import dataclass

from repro.constants import LINES_PER_PAGE, PAGE_SHIFT, line_offset_in_page, page_number
from repro.prefetchers.base import PrefetchCandidate, Prefetcher

SIGNATURE_BITS = 12
SIGNATURE_MASK = (1 << SIGNATURE_BITS) - 1


def encode_delta(delta):
    """7-bit sign-magnitude delta encoding used in the signature hash."""
    magnitude = abs(delta) & 0x3F
    return magnitude | (0x40 if delta < 0 else 0)


def advance_signature(signature, delta):
    """Fold ``delta`` into the 12-bit compressed delta-path signature."""
    return ((signature << 3) ^ encode_delta(delta)) & SIGNATURE_MASK


@dataclass(frozen=True)
class SppConfig:
    """SPP structure sizes (Table 3 configuration)."""

    st_entries: int = 256
    pt_entries: int = 512
    ghr_entries: int = 8
    delta_slots: int = 4
    counter_max: int = 15
    prefetch_threshold: float = 0.25
    lookahead_threshold: float = 0.25
    #: eSPP's relaxed threshold when bandwidth headroom exceeds 50%.
    relaxed_threshold: float = 0.125
    #: Lookahead is confidence-bounded (the paper's design): the walk ends
    #: when cascaded confidence falls below the threshold or leaves the
    #: page.  The depth cap is a safety bound well above what confidence
    #: decay allows in practice, not a tuning knob.
    max_lookahead_depth: int = 64
    max_candidates_per_train: int = 24
    #: Prefetch filter: recently issued lines are not re-requested (the
    #: original SPP's filter; its storage is what brings the total to the
    #: paper's 6.2KB).
    filter_entries: int = 1024


class _StEntry:
    __slots__ = ("tag", "last_offset", "signature")

    def __init__(self, tag, last_offset, signature=0):
        self.tag = tag
        self.last_offset = last_offset
        self.signature = signature


class _GhrEntry:
    __slots__ = ("signature", "confidence", "last_offset", "delta")

    def __init__(self, signature, confidence, last_offset, delta):
        self.signature = signature
        self.confidence = confidence
        self.last_offset = last_offset
        self.delta = delta


class SPP(Prefetcher):
    """Signature Pattern Prefetcher with lookahead (Kim et al., MICRO'16)."""

    name = "spp"

    def __init__(self, config: SppConfig = SppConfig()):
        tables = (config.st_entries, config.pt_entries)
        if min(tables) < 1 or any(n & (n - 1) for n in tables):
            raise ValueError("ST and PT entry counts must be positive powers of two")
        if config.delta_slots < 1 or config.filter_entries < 1:
            raise ValueError("SPP needs at least one delta slot and one filter entry")
        self.config = config
        self._st = [None] * config.st_entries
        # Pattern table: per entry a ``c_sig`` counter (flat list) plus a
        # list of ``(delta, c_delta)`` tuple slots.  Tuple-pair iteration is
        # the fastest slot walk CPython offers (C-level list iteration with
        # 2-tuple unpack), and the lookahead loop below is the simulator's
        # hottest prefetcher code.
        self._pt_c_sig = [0] * config.pt_entries
        self._pt_slots = [[(0, 0)] * config.delta_slots for _ in range(config.pt_entries)]
        self._ghr = []
        self._filter = [-1] * config.filter_entries

    # -- thresholds (overridden by eSPP) --------------------------------------

    def _threshold(self, cycle):
        return self.config.prefetch_threshold

    # -- table plumbing --------------------------------------------------------

    def _pt_update(self, signature, delta):
        cfg = self.config
        idx = (signature ^ (signature >> 6)) & (cfg.pt_entries - 1)
        cmax = cfg.counter_max
        c_sigs = self._pt_c_sig
        slots = self._pt_slots[idx]
        c_sig = c_sigs[idx]
        if c_sig >= cmax:
            # Aging: halve every counter so old history decays (the original
            # design's saturation handling).
            c_sig >>= 1
            slots[:] = [(d, c >> 1) for d, c in slots]
        c_sigs[idx] = c_sig + 1
        victim = 0
        victim_count = None
        for i, (d, c) in enumerate(slots):
            if d == delta:
                count = c + 1
                slots[i] = (d, count if count < cmax else cmax)
                return
            if victim_count is None or c < victim_count:
                # First-minimum victim slot, tracked inline (no key-fn min).
                victim = i
                victim_count = c
        slots[victim] = (delta, 1)

    def _ghr_insert(self, signature, confidence, last_offset, delta):
        self._ghr.insert(0, _GhrEntry(signature, confidence, last_offset, delta))
        del self._ghr[self.config.ghr_entries :]

    def _ghr_bootstrap(self, offset):
        """Find a GHR entry whose cross-page stride lands on ``offset``."""
        for entry in self._ghr:
            landing = entry.last_offset + entry.delta
            if landing >= LINES_PER_PAGE and landing - LINES_PER_PAGE == offset:
                return advance_signature(entry.signature, entry.delta)
            if landing < 0 and landing + LINES_PER_PAGE == offset:
                return advance_signature(entry.signature, entry.delta)
        return 0

    # -- main algorithm ---------------------------------------------------------

    def train(self, cycle, pc, addr, hit):
        page = page_number(addr)
        offset = line_offset_in_page(addr)
        idx = page & (self.config.st_entries - 1)
        tag = (page >> 8) & 0xFFFF
        entry = self._st[idx]
        if entry is not None and entry.tag == tag:
            delta = offset - entry.last_offset
            if delta == 0:
                return ()
            self._pt_update(entry.signature, delta)
            entry.signature = advance_signature(entry.signature, delta)
            entry.last_offset = offset
        else:
            signature = self._ghr_bootstrap(offset)
            entry = _StEntry(tag, offset, signature)
            self._st[idx] = entry
            if signature == 0:
                return ()
        cands = self._lookahead(cycle, entry.signature, page, offset)
        if self.trace_emit is not None:
            # The scheme's core decision: one confidence-cascaded walk from
            # the current signature, under the (possibly bandwidth-relaxed)
            # threshold.
            self.trace_emit(
                cycle,
                self.name,
                f"lookahead sig={entry.signature:#06x} "
                f"thr={self._threshold(cycle)} cands={len(cands)}",
            )
        return cands

    def _lookahead(self, cycle, signature, page, base_offset):
        """Confidence-cascaded lookahead walk (the simulator's hottest
        prefetcher loop — table indexing, signature advance and the
        prefetch filter are inlined; arithmetic is unchanged)."""
        cfg = self.config
        threshold = self._threshold(cycle)
        page_base = page << (PAGE_SHIFT - 6)
        candidates = []
        append = candidates.append
        seen = {page_base + base_offset}
        seen_add = seen.add
        confidence = 1.0
        offset = base_offset
        pt_c_sig = self._pt_c_sig
        pt_slots = self._pt_slots
        pt_mask = cfg.pt_entries - 1
        flt = self._filter
        flt_mask = cfg.filter_entries - 1
        lookahead_threshold = cfg.lookahead_threshold
        max_candidates = cfg.max_candidates_per_train
        lpp = LINES_PER_PAGE
        n_cands = 0
        for _ in range(cfg.max_lookahead_depth):
            idx = (signature ^ (signature >> 6)) & pt_mask
            c_sig = pt_c_sig[idx]
            if c_sig == 0:
                break
            best_conf = 0.0
            best_delta = 0
            for delta, c_delta in pt_slots[idx]:
                if c_delta == 0:
                    continue
                conf = confidence * c_delta / c_sig
                if conf > best_conf:
                    best_conf = conf
                    best_delta = delta
                if conf < threshold:
                    continue
                target = offset + delta
                if 0 <= target < lpp:
                    line = page_base + target
                    if line not in seen:
                        # The prefetch filter: recently issued lines are
                        # not re-requested.
                        fidx = (line ^ (line >> 10)) & flt_mask
                        if flt[fidx] != line:
                            flt[fidx] = line
                            seen_add(line)
                            append(PrefetchCandidate(line))
                            n_cands += 1
                else:
                    # Crossing the page: remember for cross-page bootstrap.
                    self._ghr_insert(signature, conf, offset, delta)
                if n_cands >= max_candidates:
                    return candidates
            if best_delta == 0 or best_conf < lookahead_threshold:
                break
            next_offset = offset + best_delta
            if not 0 <= next_offset < lpp:
                break
            # Inlined advance_signature/encode_delta.
            magnitude = (best_delta if best_delta >= 0 else -best_delta) & 0x3F
            if best_delta < 0:
                magnitude |= 0x40
            signature = ((signature << 3) ^ magnitude) & SIGNATURE_MASK
            offset = next_offset
            confidence = best_conf
        return candidates

    # -- storage ----------------------------------------------------------------

    def storage_breakdown(self):
        cfg = self.config
        st_bits = cfg.st_entries * (16 + 6 + SIGNATURE_BITS)
        pt_bits = cfg.pt_entries * (4 + cfg.delta_slots * (7 + 4))
        ghr_bits = cfg.ghr_entries * (SIGNATURE_BITS + 4 + 6 + 7)
        filter_bits = cfg.filter_entries * 16
        return {
            "signature-table": st_bits,
            "pattern-table": pt_bits,
            "ghr": ghr_bits,
            "prefetch-filter": filter_bits,
            # Table 3 budgets the global feedback counters; no decision
            # here reads them, so the model keeps none.
            "feedback": 10,
        }

    def reset(self):
        cfg = self.config
        self._st = [None] * cfg.st_entries
        self._pt_c_sig = [0] * cfg.pt_entries
        self._pt_slots = [[(0, 0)] * cfg.delta_slots for _ in range(cfg.pt_entries)]
        self._ghr = []
        self._filter = [-1] * cfg.filter_entries


class ESPP(SPP):
    """eSPP — SPP with a bandwidth-aware confidence threshold (Section 2.5).

    When the 2-bit utilization bucket reports less than 50% utilization
    (buckets 0 and 1), the prefetch threshold relaxes from 25% to 12.5%.
    """

    name = "espp"

    def __init__(self, bandwidth, config: SppConfig = SppConfig()):
        super().__init__(config)
        self.bandwidth = bandwidth

    def _threshold(self, cycle):
        if self.bandwidth.bucket(cycle) <= 1:
            return self.config.relaxed_threshold
        return self.config.prefetch_threshold
