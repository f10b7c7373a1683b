"""Page Buffer (PB) — DSPatch's access-observation structure.

Per Section 3.3 and Table 1: 64 entries, each tracking one of the
most-recently-accessed 4KB physical pages at the L2 level.  An entry
accumulates the page's observed access bit-pattern (64 bits, one per 64B
line) and records up to two trigger (PC, offset) pairs — the first access
to each 2KB segment (Section 3.7).  The stored PC is already the folded
8-bit SPT signature (Table 1 budgets 8 bits per PC).

On eviction the entry is handed to the learning path: per trigger, the
observed pattern is compressed to 128B granularity, anchored (rotated) to
the trigger offset, and folded into the trigger's SPT entry.
"""

from repro.constants import LINES_PER_PAGE


class PageBufferEntry:
    """Observed state of one 4KB page."""

    __slots__ = ("page", "pattern", "triggers")

    def __init__(self, page):
        self.page = page
        self.pattern = 0
        #: Per 2KB segment: (folded trigger PC signature, line offset) or None.
        self.triggers = [None, None]

    def record(self, line_offset):
        """Accumulate one accessed line into the page's bit-pattern."""
        if not 0 <= line_offset < LINES_PER_PAGE:
            raise ValueError(f"line offset {line_offset} outside page")
        self.pattern |= 1 << line_offset

    def set_trigger(self, segment, pc_signature, line_offset):
        """Record a segment's trigger; only the first one sticks."""
        if self.triggers[segment] is None:
            self.triggers[segment] = (pc_signature, line_offset)
            return True
        return False


class PageBuffer:
    """LRU-managed buffer of the 64 most recently accessed pages."""

    def __init__(self, entries=64):
        if entries <= 0:
            raise ValueError("page buffer needs at least one entry")
        self.entries = entries
        self._pages = {}  # page -> PageBufferEntry, dict order = LRU order

    def __len__(self):
        return len(self._pages)

    def __contains__(self, page):
        return page in self._pages

    def get(self, page):
        """Return the entry for ``page`` (refreshing LRU) or ``None``."""
        entry = self._pages.pop(page, None)
        if entry is not None:
            self._pages[page] = entry
        return entry

    def insert(self, page):
        """Allocate an entry for ``page``; returns (entry, evicted_entry)."""
        if page in self._pages:
            raise ValueError(f"page {page:#x} already tracked")
        evicted = None
        if len(self._pages) >= self.entries:
            oldest = next(iter(self._pages))
            evicted = self._pages.pop(oldest)
        entry = PageBufferEntry(page)
        self._pages[page] = entry
        return entry, evicted

    def storage_bits(self):
        """Table 1's stated budget: 158 bits per entry, 64 entries.

        The paper's field list (page 36 + pattern 64 + 2 x [PC 8 + offset
        6]) sums to 128 bits; Table 1 nevertheless states 158 bits per
        entry and a 10112-bit PB total.  We follow the stated total and
        attribute the 30-bit difference to per-entry bookkeeping (valid,
        LRU, segment-trigger state) the field list omits.
        """
        per_entry = 158
        return self.entries * per_entry
