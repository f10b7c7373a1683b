"""Access Map Pattern Matching (AMPM) prefetcher.

AMPM [43] is evaluated in the paper (Section 4.1) but "under-performs all
other prefetchers in single-thread simulations", so it is excluded from the
figures; we implement it for completeness and for the extra ablation bench.

The design keeps an access bitmap per recently touched page ("access map")
and, on each access at offset ``o``, tests candidate strides ``k``: if
``o - k`` and ``o - 2k`` were both accessed, the pattern is assumed to
continue and ``o + k`` is prefetched.
"""

from repro.constants import LINES_PER_PAGE, line_offset_in_page, page_number
from repro.prefetchers.base import PrefetchCandidate, Prefetcher


class AMPM(Prefetcher):
    """Access-map pattern matching over 4KB zones (Ishii et al., ICS'09)."""

    name = "ampm"

    def __init__(self, map_entries=64, max_stride=16, degree=2):
        self.map_entries = map_entries
        self.max_stride = max_stride
        self.degree = degree
        self._maps = {}  # page -> access bitmap, dict order = LRU order

    def train(self, cycle, pc, addr, hit):
        page = page_number(addr)
        offset = line_offset_in_page(addr)
        bitmap = self._maps.pop(page, 0)
        if not bitmap and len(self._maps) >= self.map_entries:
            oldest = next(iter(self._maps))
            del self._maps[oldest]
        bitmap |= 1 << offset
        self._maps[page] = bitmap

        base_line = (page << 6)
        out = []
        for k in self._candidate_strides():
            back1 = offset - k
            back2 = offset - 2 * k
            if not (0 <= back1 < LINES_PER_PAGE and 0 <= back2 < LINES_PER_PAGE):
                continue
            if (bitmap >> back1) & 1 and (bitmap >> back2) & 1:
                for dist in range(1, self.degree + 1):
                    target = offset + k * dist
                    if not 0 <= target < LINES_PER_PAGE:
                        break
                    if not (bitmap >> target) & 1:
                        out.append(PrefetchCandidate(base_line + target))
                break  # first matching stride wins
        return out

    def _candidate_strides(self):
        for k in range(1, self.max_stride + 1):
            yield k
            yield -k

    def storage_breakdown(self):
        # page tag (36b) + 64b access map per entry.
        return {"access-maps": self.map_entries * (36 + LINES_PER_PAGE)}

    def reset(self):
        self._maps = {}
