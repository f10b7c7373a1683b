"""Three-level memory hierarchy with prefetch training, fill and accounting.

Wiring follows Section 4.1 of the paper exactly:

- The L1 prefetcher (PC stride) trains on every L1 demand access and fills
  the L1.
- The L2 prefetcher trains on L1 misses — *both* demand misses and misses
  of L1 prefetches — and fills prefetched lines into the L2 and the LLC.
- Prefetches that miss on-die go to DRAM and therefore consume bandwidth
  (every burst is a CAS command counted by the Section 3.2 monitor).

Timeliness is modelled through per-line ``ready`` cycles: a demand hitting
a line whose prefetch is still in flight pays the remaining latency (a
*late* useful prefetch).

Coverage / accuracy accounting matches Figure 16's definitions:

- *useful* — a prefetched line's first demand hit (timely or late);
- *uncovered* — a demand L2 miss that had to go below L2 anyway;
- *mispredicted* — a prefetched line evicted from the LLC untouched.

``access`` runs once per memory operation and is the hottest path in the
simulator.  It returns a plain ``(latency, level)`` tuple — ``level`` is
one of the integer codes :data:`L1`/:data:`L2`/:data:`LLC`/:data:`DRAM`
(index into :data:`HIT_LEVEL_NAMES`) — instead of allocating a result
object per access.  :class:`AccessResult` remains available as a
named-tuple view for callers that want attribute access.
"""

from dataclasses import dataclass
from typing import NamedTuple

from repro.constants import LINE_SHIFT
from repro.memory.cache import Cache, CacheConfig
from repro.memory.dram import DramConfig, DramModel
from repro.memory.mshr import MshrFile

#: Integer hit-level codes returned by :meth:`MemoryHierarchy.access`.
L1, L2, LLC, DRAM = 0, 1, 2, 3
#: Display names, indexed by level code.
HIT_LEVEL_NAMES = ("L1", "L2", "LLC", "DRAM")

#: Default bound on outstanding prefetches to DRAM (the prefetch queue).
#: Under bandwidth saturation fills take longer to complete, so the queue
#: stays full longer and more prefetches get dropped — the natural
#: negative feedback of a real memory controller.  Sized to hold a
#: full-page spatial burst (DSPatch segment-0 triggers can emit up to 62
#: lines) plus a steady delta-prefetcher stream.
PREFETCH_QUEUE_SIZE = 128


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache geometry for one core (Table 2 defaults, single-thread LLC)."""

    l1: CacheConfig = CacheConfig(
        name="L1D", size_bytes=32 * 1024, ways=8, hit_latency=5, mshrs=16
    )
    l2: CacheConfig = CacheConfig(
        name="L2", size_bytes=256 * 1024, ways=8, hit_latency=8, mshrs=32
    )
    llc: CacheConfig = CacheConfig(
        name="LLC",
        size_bytes=2 * 1024 * 1024,
        ways=16,
        hit_latency=30,
        mshrs=32,
        replacement="pf-dead-block",
    )

    def scaled_llc(self, size_bytes):
        """A copy of this config with a different LLC capacity."""
        llc = CacheConfig(
            name=self.llc.name,
            size_bytes=size_bytes,
            ways=self.llc.ways,
            hit_latency=self.llc.hit_latency,
            mshrs=self.llc.mshrs,
            replacement=self.llc.replacement,
        )
        return HierarchyConfig(l1=self.l1, l2=self.l2, llc=llc)


@dataclass
class PrefetchStats:
    """Counts of one L2 prefetcher's prefetches: issued, useful (late ones
    included), late, and useless (evicted from the LLC unused)."""

    issued: int = 0
    useful: int = 0
    late: int = 0
    useless: int = 0

    def accuracy(self):
        """Fraction of issued prefetches that saw a demand use."""
        return self.useful / self.issued if self.issued else 0.0


def coverage_accuracy(pf_stats, uncovered):
    """Return (coverage, accuracy, base_misses) per Figure 16 semantics.

    ``coverage`` is useful prefetches over the no-prefetch miss count
    (useful + ``uncovered``, the remaining demand misses below L2);
    ``accuracy`` is useful over issued.  Both kernels report through this
    one definition.
    """
    useful = pf_stats.useful
    base = useful + uncovered
    coverage = useful / base if base else 0.0
    return coverage, pf_stats.accuracy(), base


class AccessResult(NamedTuple):
    """Named-tuple view of one demand access's ``(latency, hit_level)``.

    ``MemoryHierarchy.access`` returns plain tuples for speed; they unpack
    identically.  Test doubles standing in for a hierarchy should return
    an ``AccessResult`` (or plain tuple) whose ``hit_level`` is one of the
    integer codes :data:`L1`/:data:`L2`/:data:`LLC`/:data:`DRAM`.
    """

    latency: float
    hit_level: int


@dataclass
class PollutionEvent:
    """An LLC eviction caused by a prefetch fill (appendix study input).

    ``ordinal`` is the demand-access sequence number at eviction time; the
    appendix's reuse window is expressed in the same ordinal space.
    """

    ordinal: int
    victim_line: int


class MemoryHierarchy:
    """One core's L1/L2 plus a (possibly shared) LLC and DRAM."""

    __slots__ = (
        "config",
        "dram",
        "l1",
        "l2",
        "llc",
        "l1_prefetcher",
        "l2_prefetcher",
        "l1_mshr",
        "l2_mshr",
        "llc_mshr",
        "pf_stats",
        "_in_flight",
        "prefetch_queue_size",
        "demand_accesses",
        "l2_demand_misses",
        "_l2_train",
        "_dram_access",
        "_merge_bound",
        "_prune_scratch",
    )

    #: Pollution recording and event tracing live on the observed subclass
    #: (:class:`repro.memory.observed.ObservedHierarchy`); the plain class
    #: exposes the same attributes as empty constants so result assembly
    #: reads one shape regardless of which hierarchy ran.
    record_pollution_victims = False
    pollution_events = ()
    demand_log = ()
    prefetch_fill_log = ()

    def __init__(
        self,
        config: HierarchyConfig = None,
        dram: DramModel = None,
        llc: Cache = None,
        l1_prefetcher=None,
        l2_prefetcher=None,
    ):
        self.config = config or HierarchyConfig()
        self.dram = dram or DramModel(DramConfig())
        self.l1 = Cache(self.config.l1)
        self.l2 = Cache(self.config.l2)
        self.llc = llc or Cache(self.config.llc)
        self.l1_prefetcher = l1_prefetcher
        self.l2_prefetcher = l2_prefetcher
        self.l1_mshr = MshrFile(self.config.l1.mshrs)
        self.l2_mshr = MshrFile(self.config.l2.mshrs)
        self.llc_mshr = MshrFile(self.config.llc.mshrs)
        self.pf_stats = PrefetchStats()
        self._in_flight = {}  # line_addr -> ready cycle of an outstanding prefetch
        #: Bound on outstanding prefetches to DRAM (the prefetch queue).
        self.prefetch_queue_size = PREFETCH_QUEUE_SIZE
        self.demand_accesses = 0
        #: L2 lookups that missed: a run's ``l2_demand_misses``.
        self.l2_demand_misses = 0
        # Hot-path bound methods (the targets never change after init) and
        # the demand-merge latency bound, a pure function of DRAM timings.
        self._l2_train = None if l2_prefetcher is None else l2_prefetcher.train
        self._dram_access = self.dram.access
        self._merge_bound = self.dram.demand_merge_bound()
        # Pooled scratch for _prune_in_flight: the completed-prefetch list
        # is reused across calls instead of allocated per queue-full event.
        self._prune_scratch = []

    # ------------------------------------------------------------------ API

    def access(self, cycle, pc, addr, is_write=False):
        """Run one demand access; returns ``(latency, level_code)``."""
        cycle = int(cycle)
        self.demand_accesses += 1
        line = addr >> LINE_SHIFT
        l1 = self.l1
        l1_line = l1.access(line, cycle)
        l1_pf = self.l1_prefetcher
        if l1_pf is not None:
            for cand in l1_pf.train(cycle, pc, addr, l1_line is not None):
                self._issue_l1_prefetch(cycle, pc, cand)
        if l1_line is not None:
            ready = l1_line.ready
            latency = l1.hit_latency
            if ready > cycle:
                latency += ready - cycle
            return latency, L1

        # L1 miss: train the L2 prefetcher (demand and L1-prefetch misses
        # both reach here; L1-prefetch misses train via _issue_l1_prefetch).
        latency, level = self._below_l1(cycle, pc, addr, is_write)
        wait = self.l1_mshr.allocate(cycle, cycle + latency)
        latency += wait
        l1.fill(line, cycle, False, False, cycle + latency, False)
        return latency, level

    def _below_l1(self, cycle, pc, addr, is_write):
        """Demand path below the L1 (once per L1 miss): the L2, then an
        in-flight prefetch to merge with, then the LLC, then DRAM."""
        line = addr >> LINE_SHIFT
        candidates = ()
        l2 = self.l2
        l2_line = l2.access(line, cycle)
        first_use = l2.last_access_first_use
        if self._l2_train is not None:
            candidates = self._l2_train(cycle, pc, addr, l2_line is not None)
        if l2_line is not None:
            if first_use:
                self._note_use(cycle, line, l2_line)
            latency = l2.hit_latency + self._residual(cycle, l2_line)
            if candidates:
                self._issue_prefetches(cycle, candidates)
            return latency, L2

        self.l2_demand_misses += 1
        inflight_ready = self._in_flight.pop(line, None)
        if inflight_ready is not None and inflight_ready > cycle:
            # The prefetched L2/LLC copy was evicted while its fill was
            # still outstanding; the demand merges with it (promoted to
            # demand priority) and pays the capped remainder.
            residual = inflight_ready - cycle
            bound = self._merge_bound
            if residual > bound:
                residual = bound
            latency = l2.hit_latency + residual
            pf = self.pf_stats
            pf.useful += 1
            pf.late += 1
            l2.fill(line, cycle, False, False, cycle + residual, False)
            self._notify_useful(cycle, line, True)
            if candidates:
                self._issue_prefetches(cycle, candidates)
            return latency, LLC

        llc = self.llc
        llc_line = llc.access(line, cycle)
        if llc_line is not None:
            if llc.last_access_first_use:
                self._note_use(cycle, line, llc_line)
            latency = llc.hit_latency + self._residual(cycle, llc_line)
            l2.fill(line, cycle, False, False, cycle + latency, False)
            if candidates:
                self._issue_prefetches(cycle, candidates)
            return latency, LLC

        # Demand goes to DRAM.
        dram_latency = self._dram_access(cycle, line, is_write)
        latency = llc.hit_latency + dram_latency
        latency += self.l2_mshr.allocate(cycle, cycle + latency)
        latency += self.llc_mshr.allocate(cycle, cycle + latency)
        ready = cycle + latency
        self._fill_llc(line, cycle, prefetched=False, ready=ready)
        l2.fill(line, cycle, False, False, ready, False)
        if candidates:
            self._issue_prefetches(cycle, candidates)
        return latency, DRAM

    def _residual(self, cycle, cache_line):
        """Remaining fill latency a demand pays when hitting ``cache_line``.

        A demand that hits a still-in-flight *prefetched* line merges with
        the outstanding request and is promoted to demand priority, so its
        wait is capped at a clean demand round-trip; demand-filled lines
        pay their true remainder.
        """
        residual = cache_line.ready - cycle
        if residual <= 0:
            return 0
        if cache_line.prefetched:
            bound = self._merge_bound
            if residual > bound:
                return bound
        return residual

    # ------------------------------------------------------- L1 prefetching

    def _issue_l1_prefetch(self, cycle, pc, cand):
        line = cand.line_addr
        if self.l1.contains(line):
            return
        # L1 prefetches compete with demand misses for the 16 L1 MSHRs
        # (Table 2); with none free the prefetch is dropped — this is what
        # keeps a real L1 prefetcher from running arbitrarily far ahead.
        l1_mshr = self.l1_mshr
        if l1_mshr.outstanding(cycle) >= l1_mshr.capacity:
            return
        # An L1 prefetch that misses the L1 is itself an L1 miss and
        # therefore trains the L2 prefetcher (Section 4.1).
        latency, _level = self._below_l1(cycle, pc, line << LINE_SHIFT, False)
        l1_mshr.allocate(cycle, cycle + latency)
        self.l1.fill(line, cycle, True, False, cycle + latency, False)

    # ------------------------------------------------------- L2 prefetching

    def _issue_prefetches(self, cycle, candidates):
        """Issue a batch of prefetch candidates; returns what became of the
        last one: ``"dram"`` or ``"llc"``, where its fill came from, or
        ``"resident"``, ``"inflight"`` or ``"bandwidth"``, why it was
        dropped (the strings its trace events carry).

        One call per training access that produced candidates, one loop
        iteration per candidate — the body is fully inlined (cache lookup,
        in-flight filter, LLC promote, DRAM issue) with every loop-invariant
        object hoisted, because candidate volume is several times access
        volume under aggressive prefetchers.
        """
        pf = self.pf_stats
        l2 = self.l2
        l2_sets = l2._sets
        l2_mask = l2._set_mask
        l2_shift = l2._tag_shift
        l2_fill = l2.fill
        llc = self.llc
        llc_sets = llc._sets
        llc_mask = llc._set_mask
        llc_shift = llc._tag_shift
        llc_hit_latency = llc.hit_latency
        in_flight = self._in_flight
        queue_size = self.prefetch_queue_size
        dram_access = self._dram_access
        outcome = None
        for cand in candidates:
            line = cand.line_addr
            if l2_sets[line & l2_mask].get(line >> l2_shift) is not None:
                outcome = "resident"
                continue
            inflight_ready = in_flight.get(line)
            if inflight_ready is not None:
                if inflight_ready > cycle:
                    outcome = "inflight"
                    continue
                del in_flight[line]
            llc_line = llc_sets[line & llc_mask].get(line >> llc_shift)
            if llc_line is not None:
                # Promote from LLC into L2.
                pf.issued += 1
                l2_fill(line, cycle, True, cand.low_priority, cycle + llc_hit_latency, False)
                outcome = "llc"
                continue
            if len(in_flight) >= queue_size:
                # Lazily retire completed prefetches before declaring the
                # queue full (behaviour-identical to eager pruning: stale
                # entries never affect anything but this capacity check).
                self._prune_in_flight(cycle)
                if len(in_flight) >= queue_size:
                    outcome = "bandwidth"
                    continue
            dram_latency = dram_access(cycle, line, False, True)
            if dram_latency is None:
                # Rejected by the memory controller under extreme backlog.
                outcome = "bandwidth"
                continue
            pf.issued += 1
            ready = cycle + llc_hit_latency + dram_latency
            in_flight[line] = ready
            self._fill_llc(line, cycle, prefetched=True, ready=ready, low_priority=cand.low_priority)
            l2_fill(line, cycle, True, cand.low_priority, ready, False)
            outcome = "dram"
        return outcome

    def _prune_in_flight(self, cycle):
        in_flight = self._in_flight
        done = self._prune_scratch
        done.clear()
        for ln, ready in in_flight.items():
            if ready <= cycle:
                done.append(ln)
        for ln in done:
            del in_flight[ln]

    # ---------------------------------------------------------- fill helpers

    def _fill_llc(self, line, cycle, prefetched, ready, low_priority=False):
        """Fill the LLC; an evicted never-used prefetch counts useless.

        Returns the :class:`~repro.memory.cache.EvictionInfo` or ``None``.
        """
        evicted = self.llc.fill(
            line, cycle, prefetched=prefetched, low_priority=low_priority, ready=ready
        )
        if evicted is not None and evicted.was_prefetched and not evicted.was_used:
            self.pf_stats.useless += 1
            if self.l2_prefetcher is not None:
                self.l2_prefetcher.note_useless_prefetch(cycle, evicted.line_addr)
        return evicted

    def _note_use(self, cycle, line, cache_line):
        """First demand use of a prefetched line at L2 or LLC (the cache's
        ``last_access_first_use``): count it useful, late when its fill
        had not arrived, and propagate."""
        pf = self.pf_stats
        pf.useful += 1
        late = cache_line.ready > cycle
        if late:
            pf.late += 1
        self._notify_useful(cycle, line, late)

    def _notify_useful(self, cycle, line, late):
        """A prefetched line's first demand use (``late`` when the demand
        came before the fill, which the observed subclass emits): mark
        the line used and tell the L2 scheme."""
        self.llc.touch_for_prefetcher(line)
        self.l2.touch_for_prefetcher(line)
        if self.l2_prefetcher is not None:
            self.l2_prefetcher.note_useful_prefetch(cycle, line)

    # ---------------------------------------------------------------- stats

    def reset_stats(self):
        """Zero all statistics at the warmup boundary.

        Cache contents, prefetcher state and in-flight prefetches survive —
        only the accounting restarts, so coverage/accuracy/misses reflect
        the measured region alone.
        """
        self.pf_stats = PrefetchStats()
        self.l2_demand_misses = 0

    def coverage_accuracy(self):
        """Return (coverage, accuracy, base_misses) per Figure 16 semantics."""
        return coverage_accuracy(self.pf_stats, self.l2_demand_misses)
