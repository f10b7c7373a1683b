"""Event-emitting memory hierarchy (the opt-in observability path).

:class:`ObservedHierarchy` subclasses the plain
:class:`repro.memory.hierarchy.MemoryHierarchy` and emits the event
grammar of :mod:`repro.observe.events` around the inherited simulation
logic.  The split is deliberate:

- **tracing off** → the system drivers construct the plain class, whose
  hot path carries *zero* instrumentation — results stay bit-identical
  and throughput untouched by construction, not by branch discipline;
- **tracing on** → this subclass wraps the same inherited methods, so
  the simulated arithmetic is the parent's own code and a traced run
  produces the exact same ``RunResult`` (pinned by
  ``tests/test_observed_hierarchy.py``).

Instead of duplicating the aggressively inlined issue loop, the
override replays it one candidate at a time through the parent, which
returns what became of the candidate: a fill from DRAM or the LLC, or
the reason it was dropped.  The parent's useful-prefetch hook is told
whether the use was late, and the LLC fill override calls the parent's,
which returns the victim, and only adds its two events.  No outcome is
worked out from counters, so the simulation semantics keep a single
source of truth.  Tracing-on throughput is not a goal; tracing-off
throughput is (see ``benchmarks/bench_observe_overhead.py``).

``record_pollution_victims`` rides the same event stream: a
:class:`repro.observe.sinks.PollutionCollector` subscribes internally
and derives the classic ``demand_log`` / ``prefetch_fill_log`` /
``pollution_events`` views, exposed here as properties.  This is the
spec of those logs and the path of object-model runs (no toolchain,
``kernel="object"``, or tracing on); compiled runs record the same logs
in the generated C over the plain hierarchy (docs/engine.md,
"Pollution logs").
"""

from repro.constants import LINE_SHIFT
from repro.memory.hierarchy import DRAM, L1, MemoryHierarchy, PollutionEvent
from repro.observe.events import (
    DROP,
    EVICTED_UNUSED,
    FAMILY_CACHE,
    FAMILY_PF,
    FILL,
    HIT,
    ISSUE,
    LATE,
    MISS,
    POLLUTING,
    RESET,
    SCHEME,
    USEFUL,
)
from repro.observe.sinks import PollutionCollector


class ObservedHierarchy(MemoryHierarchy):
    """A :class:`MemoryHierarchy` that emits trace events to sinks."""

    __slots__ = (
        "_cache_subs",
        "_pf_subs",
        "_pollution",
        "record_pollution_victims",
    )

    def __init__(
        self,
        config=None,
        dram=None,
        llc=None,
        l1_prefetcher=None,
        l2_prefetcher=None,
        sink=None,
        trace_prefetch=False,
        trace_cache=False,
        record_pollution_victims=False,
    ):
        super().__init__(
            config=config,
            dram=dram,
            llc=llc,
            l1_prefetcher=l1_prefetcher,
            l2_prefetcher=l2_prefetcher,
        )
        self.record_pollution_victims = record_pollution_victims
        self._pollution = PollutionCollector() if record_pollution_victims else None
        pf_subs = []
        cache_subs = []
        if sink is not None:
            if trace_prefetch:
                pf_subs.append(sink.emit)
            if trace_cache:
                cache_subs.append(sink.emit)
        if self._pollution is not None:
            pf_subs.append(self._pollution.emit)
            cache_subs.append(self._pollution.emit)
        self._pf_subs = tuple(pf_subs)
        self._cache_subs = tuple(cache_subs)
        if self._pf_subs and l2_prefetcher is not None:
            attach = getattr(l2_prefetcher, "attach_trace", None)
            if attach is not None:
                attach(self._scheme_emit)

    # -------------------------------------------------- derived pollution views

    @property
    def pollution_events(self):
        if self._pollution is None:
            return []
        return [PollutionEvent(o, v) for o, v in self._pollution.victims]

    @property
    def demand_log(self):
        return [] if self._pollution is None else self._pollution.demands

    @property
    def prefetch_fill_log(self):
        return [] if self._pollution is None else self._pollution.fills

    # ------------------------------------------------------------ traced paths

    def access(self, cycle, pc, addr, is_write=False):
        subs = self._cache_subs
        if not subs:
            return MemoryHierarchy.access(self, cycle, pc, addr, is_write)
        latency, level = MemoryHierarchy.access(self, cycle, pc, addr, is_write)
        if level == L1:
            ev = (HIT, self.demand_accesses, int(cycle), addr >> LINE_SHIFT, L1)
            for emit in subs:
                emit(ev)
        return latency, level

    def _below_l1(self, cycle, pc, addr, is_write):
        subs = self._cache_subs
        if not subs:
            return MemoryHierarchy._below_l1(self, cycle, pc, addr, is_write)
        latency, level = MemoryHierarchy._below_l1(self, cycle, pc, addr, is_write)
        kind = MISS if level == DRAM else HIT
        ev = (kind, self.demand_accesses, int(cycle), addr >> LINE_SHIFT, level)
        for emit in subs:
            emit(ev)
        return latency, level

    def _issue_prefetches(self, cycle, candidates):
        subs = self._pf_subs
        if not subs:
            return MemoryHierarchy._issue_prefetches(self, cycle, candidates)
        in_flight = self._in_flight
        llc_hit_latency = self.llc.hit_latency
        issue_one = MemoryHierarchy._issue_prefetches
        cyc = int(cycle)
        outcome = None
        for cand in candidates:
            line = cand.line_addr
            # One candidate through the parent's (single-source-of-truth)
            # issue path, which returns what became of it.
            outcome = issue_one(self, cycle, (cand,))
            ord_ = self.demand_accesses
            if outcome == "dram":
                ready = in_flight.get(line, cyc)
            elif outcome == "llc":
                ready = cyc + llc_hit_latency
            else:
                for emit in subs:
                    emit((DROP, ord_, cyc, line, outcome))
                continue
            lp = 1 if cand.low_priority else 0
            for emit in subs:
                emit((ISSUE, ord_, cyc, line, lp, outcome))
            for emit in subs:
                emit((FILL, ord_, cyc, line, outcome, ready))
        return outcome

    def _fill_llc(self, line, cycle, prefetched, ready, low_priority=False):
        evicted = MemoryHierarchy._fill_llc(self, line, cycle, prefetched, ready, low_priority)
        subs = self._pf_subs
        if evicted is None or not subs:
            return evicted
        ord_ = self.demand_accesses
        cyc = int(cycle)
        if evicted.was_prefetched and not evicted.was_used:
            ev = (EVICTED_UNUSED, ord_, cyc, evicted.line_addr)
            for emit in subs:
                emit(ev)
        if prefetched:
            ev = (POLLUTING, ord_, cyc, line, evicted.line_addr)
            for emit in subs:
                emit(ev)
        return evicted

    def _notify_useful(self, cycle, line, late):
        subs = self._pf_subs
        if subs:
            ord_ = self.demand_accesses
            cyc = int(cycle)
            ev = (USEFUL, ord_, cyc, line, 1 if late else 0)
            for emit in subs:
                emit(ev)
            if late:
                ev = (LATE, ord_, cyc, line)
                for emit in subs:
                    emit(ev)
        MemoryHierarchy._notify_useful(self, cycle, line, late)

    def _scheme_emit(self, cycle, name, info=""):
        ev = (SCHEME, self.demand_accesses, int(cycle), 0, name, str(info))
        for emit in self._pf_subs:
            emit(ev)

    def reset_stats(self):
        MemoryHierarchy.reset_stats(self)
        ord_ = self.demand_accesses
        marker_cache = (RESET, ord_, 0, FAMILY_CACHE)
        for emit in self._cache_subs:
            emit(marker_cache)
        marker_pf = (RESET, ord_, 0, FAMILY_PF)
        for emit in self._pf_subs:
            emit(marker_pf)
