"""Next-line prefetcher.

The simplest spatial prefetcher [50]: every training access prefetches
the next ``degree`` sequential lines (bounded to the page).  Zero learned
state — its storage is a degree register.  Useful as a floor baseline in
the related-work bench: anything that loses to next-line on a workload is
not earning its storage there.
"""

from repro.constants import LINE_SHIFT, LINES_PER_PAGE, line_offset_in_page
from repro.prefetchers.base import PrefetchCandidate, Prefetcher


class NextLinePrefetcher(Prefetcher):
    """Prefetch the next N sequential lines on every access."""

    name = "nextline"

    def __init__(self, degree=1):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        self.degree = degree

    def train(self, cycle, pc, addr, hit):
        line = addr >> LINE_SHIFT
        offset = line_offset_in_page(addr)
        out = []
        for dist in range(1, self.degree + 1):
            if offset + dist >= LINES_PER_PAGE:
                break
            out.append(PrefetchCandidate(line + dist))
        return out

    def storage_breakdown(self):
        return {"degree-register": 4}
