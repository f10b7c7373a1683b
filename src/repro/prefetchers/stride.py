"""PC-based stride prefetcher — the baseline L1 prefetcher.

Table 2: "L1D prefetch: PC-based stride prefetcher [38], tracks 64 PCs".
Classic Fu/Patel/Janssens design: a per-PC table records the last address
and last stride; two consecutive identical strides earn enough confidence
to prefetch ``degree`` lines ahead along the stride.
"""

from repro.constants import LINE_SHIFT, PAGE_SHIFT
from repro.prefetchers.base import PrefetchCandidate, Prefetcher


class _StrideEntry:
    __slots__ = ("tag", "last_line", "stride", "confidence")

    def __init__(self, tag, last_line):
        self.tag = tag
        self.last_line = last_line
        self.stride = 0
        self.confidence = 0


class PcStridePrefetcher(Prefetcher):
    """Per-PC constant-stride detector with a small direct-mapped table."""

    name = "pc-stride"

    #: Confidence needed before prefetching (two matching strides).
    CONFIDENCE_THRESHOLD = 2
    #: Saturating confidence ceiling (2-bit counter).
    CONFIDENCE_MAX = 3
    #: Default table size (Table 2: 64 PCs) and prefetch degree.
    TABLE_ENTRIES = 64
    DEGREE = 1

    def __init__(self, table_entries=TABLE_ENTRIES, degree=DEGREE):
        if table_entries <= 0 or table_entries & (table_entries - 1):
            raise ValueError("table size must be a power of two")
        self.table_entries = table_entries
        self.degree = degree
        self._table = [None] * table_entries

    def _index(self, pc):
        return (pc ^ (pc >> 12)) & (self.table_entries - 1)

    def train(self, cycle, pc, addr, hit):
        line = addr >> LINE_SHIFT
        idx = (pc ^ (pc >> 12)) & (self.table_entries - 1)
        entry = self._table[idx]
        tag = pc
        if entry is None or entry.tag != tag:
            self._table[idx] = _StrideEntry(tag, line)
            return ()
        stride = line - entry.last_line
        candidates = ()
        if stride != 0:
            if stride == entry.stride:
                entry.confidence = min(self.CONFIDENCE_MAX, entry.confidence + 1)
            else:
                entry.stride = stride
                entry.confidence = 1
            if entry.confidence >= self.CONFIDENCE_THRESHOLD:
                candidates = self._generate(line, stride)
        entry.last_line = line
        return candidates

    def _generate(self, line, stride):
        page_shift = PAGE_SHIFT - LINE_SHIFT
        page = line >> page_shift
        if self.degree == 1:
            # Fast path for the default degree-1 configuration.
            target = line + stride
            if target >> page_shift != page:
                return ()  # stay within the physical page
            return (PrefetchCandidate(target),)
        out = []
        for dist in range(1, self.degree + 1):
            target = line + stride * dist
            if target >> page_shift != page:
                break  # stay within the physical page
            out.append(PrefetchCandidate(target))
        return out

    def storage_breakdown(self):
        # tag (16b folded PC) + last line offset-in-page context (48b line
        # address in the model; a real design stores fewer bits) + stride
        # (7b signed) + confidence (2b).
        bits_per_entry = 16 + 48 + 7 + 2
        return {"stride-table": self.table_entries * bits_per_entry}

    def reset(self):
        self._table = [None] * self.table_entries
