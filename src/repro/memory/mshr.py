"""Miss Status Holding Register (MSHR) file.

Models the finite outstanding-miss capacity of each cache level (Table 2:
16 MSHRs at L1, 32 at L2 and per LLC bank).  The model is analytic: entries
record when their fill completes, and a request arriving at a full MSHR file
must wait for the earliest completion before it can allocate — the
head-of-line delay is returned to the caller and added to the request's
latency.
"""

import heapq


class MshrFile:
    """A bounded set of in-flight misses with completion-time tracking."""

    __slots__ = ("capacity", "_ready_heap")

    def __init__(self, capacity):
        if capacity <= 0:
            raise ValueError("MSHR capacity must be positive")
        self.capacity = capacity
        self._ready_heap = []

    def outstanding(self, cycle):
        """Number of misses still in flight at ``cycle``."""
        self._drain(cycle)
        return len(self._ready_heap)

    def allocate(self, cycle, completion_cycle):
        """Allocate an entry for a miss completing at ``completion_cycle``.

        Returns the number of cycles the request had to wait for a free
        entry (zero when the file has room).
        """
        heap = self._ready_heap
        while heap and heap[0] <= cycle:
            heapq.heappop(heap)
        wait = 0
        if len(heap) >= self.capacity:
            earliest = heap[0]
            wait = max(0, earliest - cycle)
            until = cycle + wait
            while heap and heap[0] <= until:
                heapq.heappop(heap)
            # If completions tie, at least one slot opened up; if not (all
            # completions are in the future beyond earliest), force-pop one:
            # the entry we waited on has completed by construction.
            if len(heap) >= self.capacity:
                heapq.heappop(heap)
        heapq.heappush(heap, completion_cycle + wait)
        return wait

    def _drain(self, cycle):
        heap = self._ready_heap
        while heap and heap[0] <= cycle:
            heapq.heappop(heap)
