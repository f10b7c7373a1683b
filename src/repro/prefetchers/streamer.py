"""Aggressive streaming prefetcher for the appendix pollution study.

The appendix uses "an aggressive but fairly inaccurate streaming
prefetcher [29]" to generate inaccurate prefetches whose LLC victims are
then classified (Figure 20).  This is a classic next-N-lines stream
detector: two ascending (or descending) accesses within a page arm a
stream, after which every access prefetches ``degree`` lines ahead in the
stream direction — accurate on dense streams, wasteful at stream ends and
on irregular traffic, which is precisely the point.
"""

from repro.constants import LINE_SHIFT, LINES_PER_PAGE, line_offset_in_page, page_number
from repro.prefetchers.base import PrefetchCandidate, Prefetcher


class _StreamEntry:
    __slots__ = ("last_offset", "direction", "confidence")

    def __init__(self, last_offset):
        self.last_offset = last_offset
        self.direction = 0
        self.confidence = 0


class StreamPrefetcher(Prefetcher):
    """Next-N-lines stream prefetcher (Chen & Baer style)."""

    name = "streamer"

    def __init__(self, tracked_pages=16, degree=4):
        self.tracked_pages = tracked_pages
        self.degree = degree
        self._streams = {}  # page -> _StreamEntry, dict order = LRU order

    def train(self, cycle, pc, addr, hit):
        page = page_number(addr)
        offset = line_offset_in_page(addr)
        line = addr >> LINE_SHIFT
        entry = self._streams.pop(page, None)
        if entry is None:
            if len(self._streams) >= self.tracked_pages:
                oldest = next(iter(self._streams))
                del self._streams[oldest]
            self._streams[page] = _StreamEntry(offset)
            return ()
        direction = 1 if offset > entry.last_offset else -1 if offset < entry.last_offset else 0
        if direction and direction == entry.direction:
            entry.confidence = min(3, entry.confidence + 1)
        elif direction:
            entry.direction = direction
            entry.confidence = 1
        entry.last_offset = offset
        self._streams[page] = entry
        if entry.confidence < 1 or entry.direction == 0:
            return ()
        out = []
        for dist in range(1, self.degree + 1):
            target = offset + entry.direction * dist
            if not 0 <= target < LINES_PER_PAGE:
                break
            out.append(PrefetchCandidate(line + entry.direction * dist))
        return out

    def storage_breakdown(self):
        # page tag (36b) + last offset (6b) + direction (1b) + confidence (2b)
        return {"stream-table": self.tracked_pages * (36 + 6 + 1 + 2)}

    def reset(self):
        self._streams = {}
