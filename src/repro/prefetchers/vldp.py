"""Variable Length Delta Prefetcher (VLDP).

VLDP [72] (Shevgoor et al., MICRO'15) is the delta-history prefetcher the
paper cites as SPP's closest ancestor (Section 6, "Delta-based
Prefetchers").  Where SPP compresses delta history into one hashed
signature, VLDP keeps explicit per-page delta histories and consults a
cascade of Delta Prediction Tables (DPTs), one per history length —
longest matching history wins, echoing TAGE.

Structures (sized after the original paper's ~1KB budget):

- **DHB** — Delta History Buffer: per-page entry with the last offset and
  up to ``history_len`` recent deltas.
- **DPT[k]** — for each history length ``k`` (1..3): a table mapping the
  tuple of the last ``k`` deltas to the predicted next delta, with a
  2-bit replace-hysteresis counter.
- **OPT** — Offset Prediction Table: first-access prediction keyed by the
  page offset of the first access (covers the trigger miss a pure
  delta predictor cannot).

Prediction walks forward: the matched delta is applied, the speculative
history is extended, and the cascade is consulted again up to ``degree``
steps — VLDP's "multi-degree" mode.
"""

from dataclasses import dataclass

from repro.constants import LINES_PER_PAGE, line_offset_in_page, page_number
from repro.prefetchers.base import PrefetchCandidate, Prefetcher


@dataclass(frozen=True)
class VldpConfig:
    """VLDP structure sizes (the original's ~1KB configuration)."""

    dhb_entries: int = 16
    dpt_entries: int = 64
    history_len: int = 3
    opt_entries: int = 64
    degree: int = 4


class _DhbEntry:
    __slots__ = ("last_offset", "deltas", "num_times_used")

    def __init__(self, last_offset):
        self.last_offset = last_offset
        self.deltas = []
        self.num_times_used = 0


class _DptEntry:
    __slots__ = ("key", "delta", "confidence")

    def __init__(self, key, delta):
        self.key = key
        self.delta = delta
        self.confidence = 1


class VLDP(Prefetcher):
    """Variable Length Delta Prefetcher (Shevgoor et al., MICRO'15)."""

    name = "vldp"

    def __init__(self, config: VldpConfig = VldpConfig()):
        if config.history_len < 1:
            raise ValueError("history length must be at least 1")
        self.config = config
        self._dhb = {}  # page -> _DhbEntry, dict order = LRU order
        self._dpts = [dict() for _ in range(config.history_len)]  # key tuple -> _DptEntry
        self._opt = {}  # first offset -> (delta, confidence)

    # -- table plumbing --------------------------------------------------------

    def _dpt_update(self, history, next_delta):
        """Train every history length whose suffix matches."""
        for k in range(1, min(len(history), self.config.history_len) + 1):
            key = tuple(history[-k:])
            table = self._dpts[k - 1]
            entry = table.get(key)
            if entry is None:
                if len(table) >= self.config.dpt_entries:
                    table.pop(next(iter(table)))
                table[key] = _DptEntry(key, next_delta)
            elif entry.delta == next_delta:
                entry.confidence = min(3, entry.confidence + 1)
            else:
                # 2-bit hysteresis before replacing the stored delta.
                entry.confidence -= 1
                if entry.confidence <= 0:
                    entry.delta = next_delta
                    entry.confidence = 1
            # Refresh LRU position.
            table[key] = table.pop(key)

    def _dpt_lookup(self, history):
        """Longest-history match wins (the TAGE-like cascade)."""
        for k in range(min(len(history), self.config.history_len), 0, -1):
            entry = self._dpts[k - 1].get(tuple(history[-k:]))
            if entry is not None:
                return entry.delta
        return None

    def _opt_update(self, first_offset, second_offset):
        delta = second_offset - first_offset
        stored = self._opt.get(first_offset)
        if stored is None:
            if len(self._opt) >= self.config.opt_entries:
                self._opt.pop(next(iter(self._opt)))
            self._opt[first_offset] = (delta, 1)
        elif stored[0] == delta:
            self._opt[first_offset] = (delta, min(3, stored[1] + 1))
        else:
            confidence = stored[1] - 1
            if confidence <= 0:
                self._opt[first_offset] = (delta, 1)
            else:
                self._opt[first_offset] = (stored[0], confidence)

    # -- main algorithm ---------------------------------------------------------

    def train(self, cycle, pc, addr, hit):
        page = page_number(addr)
        offset = line_offset_in_page(addr)

        entry = self._dhb.pop(page, None)
        if entry is None:
            if len(self._dhb) >= self.config.dhb_entries:
                del self._dhb[next(iter(self._dhb))]
            self._dhb[page] = _DhbEntry(offset)
            # First access: the OPT may cover the second access.
            stored = self._opt.get(offset)
            if stored is not None and stored[1] >= 2:
                target = offset + stored[0]
                if 0 <= target < LINES_PER_PAGE:
                    return [PrefetchCandidate((page << 6) + target)]
            return ()

        delta = offset - entry.last_offset
        self._dhb[page] = entry  # refresh LRU position
        if delta == 0:
            return ()
        if not entry.deltas:
            self._opt_update(entry.last_offset, offset)
        self._dpt_update(entry.deltas, delta) if entry.deltas else None
        entry.deltas.append(delta)
        del entry.deltas[: -self.config.history_len]
        entry.last_offset = offset
        return self._walk(page, offset, list(entry.deltas))

    def _walk(self, page, offset, history):
        """Chain predictions up to ``degree`` steps ahead."""
        out = []
        position = offset
        for _ in range(self.config.degree):
            delta = self._dpt_lookup(history)
            if delta is None:
                break
            position += delta
            if not 0 <= position < LINES_PER_PAGE:
                break
            out.append(PrefetchCandidate((page << 6) + position))
            history.append(delta)
            del history[: -self.config.history_len]
        return out

    # -- storage ----------------------------------------------------------------

    def storage_breakdown(self):
        cfg = self.config
        dhb_bits = cfg.dhb_entries * (36 + 6 + cfg.history_len * 7)
        dpt_bits = sum(
            cfg.dpt_entries * ((k + 1) * 7 + 2) for k in range(1, cfg.history_len + 1)
        )
        opt_bits = cfg.opt_entries * (6 + 7 + 2)
        return {"dhb": dhb_bits, "dpt-cascade": dpt_bits, "opt": opt_bits}

    def reset(self):
        self._dhb = {}
        self._dpts = [dict() for _ in range(self.config.history_len)]
        self._opt = {}
