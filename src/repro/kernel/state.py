"""KernelState: the packed flat-array form of the simulated machine.

Layer 1 of the kernel subsystem (docs/engine.md, "compiled kernel"):
everything the per-access hot path mutates — cache tags/valid/recency/
dirty/prefetch bits, MSHR heaps, the in-flight prefetch queue, DRAM bank
and bus state, the bandwidth monitor, core retirement state — packed
into flat ``int64``/``float64`` NumPy arrays laid out by
:mod:`repro.kernel.layout`.

A compiled run lays its state out straight from the ``SystemConfig``
(:meth:`KernelState.from_config`, and :class:`SharedState` given the
LLC's ``CacheConfig``): every array is allocated zeroed in bulk, only
the constants are set, and the one object it reads is the L2 scheme
(its tables, when it has a compiled twin, are converted whole).  The
run's results come from the flat counters (:meth:`KernelState.core_counters`,
:meth:`SharedState.dram_counters`) and nothing is written back.

Packing objects is the test reference: ``KernelState(execution, ...)``
and ``SharedState(cache, dram)`` pack a built (fresh or mid-run)
``CoreExecution`` + ``MemoryHierarchy`` + ``Cache`` + ``DramModel`` —
the state the config-built layout is tested against — and
:meth:`KernelState.write_back` reconstructs them on request, which is
how tests read the twin's state: OrderedDict sets in exact recency
order, heap lists, ``CacheLine``/``_StrideEntry`` objects, the scheme's
tables.

Shared state (the LLC, DRAM, and bandwidth monitor of a multi-programmed
mix) lives in a :class:`SharedState` that all per-core states reference,
mirroring how the object model shares one ``Cache``/``DramModel``.
"""

from collections import OrderedDict, deque
from itertools import chain

import numpy as np

from repro.kernel import layout
from repro.kernel.layout import (
    CAND_CAP0,
    CF64,
    CI64,
    PF_BUF_CAP,
    SF64,
    SI64,
    SM_PHT_REC,
    SM_REC,
    ST_REC,
)
from repro.cpu.core import measured_stats
from repro.memory.cache import Cache, CacheLine
from repro.memory.dram import DramCounters
from repro.memory.hierarchy import PREFETCH_QUEUE_SIZE, PollutionEvent, PrefetchStats
from repro.prefetchers.base import NullPrefetcher, Prefetcher
from repro.prefetchers.stride import PcStridePrefetcher, _StrideEntry

_CACHE_FIELDS = ("valid", "line", "dirty", "pref", "used", "touch", "ready")
#: Cache stats slots, in the order they sit in the slot arrays.
_CACHE_STATS = (
    "demand_hits",
    "demand_misses",
    "prefetch_probe_hits",
    "useful_prefetches",
    "late_useful_prefetches",
    "useless_evictions",
    "writebacks",
)
_PF_STATS = (
    "issued",
    "issued_low_priority",
    "filled_from_llc",
    "filled_from_dram",
    "useful",
    "late",
    "useless",
    "dropped_resident",
    "dropped_in_flight",
    "dropped_bandwidth",
)
#: Replacement-policy name -> fast victim mode (matches Cache._victim_mode).
VICTIM_MODES = {"lru": 0, "pf-dead-block": 1}

#: Scheme arrays that exist even when no compiled twin is active (the
#: pointer table is fixed, so inactive schemes get 1-element dummies).
_SP_I64_ARRAYS = (
    "sp_st_tag", "sp_st_loff", "sp_st_sig",
    "sp_pt_csig", "sp_pt_delta", "sp_pt_cdelta",
    "sp_ghr_sig", "sp_ghr_loff", "sp_ghr_delta",
    "sp_flt",
)
_DP_I64_ARRAYS = (
    "dp_pb_page", "dp_pb_trig_sig", "dp_pb_trig_off",
    "dp_spt_cov", "dp_spt_acc", "dp_spt_mcov", "dp_spt_or", "dp_spt_macc",
)
_BP_I64_ARRAYS = ("bp_rr", "bp_offsets", "bp_scores", "bp_active", "bp_pend")
_SM_I64_ARRAYS = ("sm_at", "sm_ft", "sm_pht")
_SCHEME_I64_ARRAYS = (
    _SP_I64_ARRAYS + _DP_I64_ARRAYS + _BP_I64_ARRAYS + _SM_I64_ARRAYS + ("st_tab",)
)
#: The pollution logs, in the order of ``RunResult``'s three log fields
#: (``demand_log``, ``prefetch_fill_log``, ``pollution_events``).
_LOGS = ("pl_dem", "pl_fill", "pl_vic")
#: Initial capacity of each pollution log, in (ordinal, line) pairs.
LOG_CAP0 = 1024

#: The scheme methods the kernel calls: a twin would never call an
#: instance-level replacement of one of them.
_SCHEME_HOOKS = ("train", "note_useful_prefetch", "note_useless_prefetch")
_NOTE_HOOKS = _SCHEME_HOOKS[1:]

_U64 = (1 << 64) - 1


def _s64(pattern):
    """A 64-bit pattern as the int64 with the same bits (for packing)."""
    return pattern - (1 << 64) if pattern >> 63 else pattern


def _ring_cap(need):
    """Power-of-two capacity of a BOP pending-fill ring that must hold
    ``need`` entries: twice that, so growths stay rare."""
    return _next_pow2(max(256, 2 * need))


def _log_cap(cap, need):
    """Capacity of a pollution log of capacity ``cap`` that must hold
    ``need`` pairs: ``cap`` doubled until they fit."""
    cap = max(cap, 1)
    while cap < need:
        cap *= 2
    return cap


def _bandwidth_is_packed(bw, dram_obj):
    """True when ``bw`` reads the monitor state packed into this domain.

    Schemes built by the system drivers hold a
    :class:`~repro.kernel.execution.KernelBandwidth` wrapper around the
    DRAM model; during a kernel run its queries hit the same flat monitor
    slots the generated C mutates, so the C twin's inline bucket reads
    are equivalent.  A scheme wired to some *other* monitor must keep the
    Python crossing.
    """
    if bw is dram_obj.monitor or bw is dram_obj:
        return True
    from repro.kernel.execution import KernelBandwidth

    return isinstance(bw, KernelBandwidth) and bw._dram is dram_obj


def _reads_notes(pf):
    """False when ``pf``'s bound note hooks are Prefetcher's no-ops."""
    return any(
        getattr(getattr(pf, name), "__func__", None) is not getattr(Prefetcher, name)
        for name in _NOTE_HOOKS
    )


def _scheme_kind(l2_pf, dram_obj):
    """SCHEME_* id when ``l2_pf`` has a compiled training twin.

    The gate takes the exact class (subclass variants override hooks the
    C twin hardcodes), with no event tracing and none of the kernel's
    hooks (``train`` and the two note hooks) replaced on the instance —
    a twin would never call them; a composite's components are held to
    the same rule.  Bandwidth-aware schemes must read the packed DRAM
    monitor.  SPP and DSPatch need their default configs (the generated
    C bakes those in as ``#define``s); BOP, eBOP, SMS and the streamer
    read every config value from flat-state slots, so any config
    qualifies within the C's structural limits: unique BOP offsets, SMS
    regions of at most 64 lines with non-empty AT and FT, and a streamer
    tracking at least one page and holding no more than it tracks.
    Everything else (``fdp:`` wrappers, ``ampm``, user subclasses, other
    composites) keeps the ``train_buf`` Python crossing.
    """
    if l2_pf is None or getattr(l2_pf, "trace_emit", None) is not None:
        return layout.SCHEME_PY
    if any(name in getattr(l2_pf, "__dict__", ()) for name in _SCHEME_HOOKS):
        return layout.SCHEME_PY
    from repro.core.dspatch import DSPatch, DSPatchConfig
    from repro.prefetchers.bop import BOP, EBOP
    from repro.prefetchers.sms import SMS
    from repro.prefetchers.spp import ESPP, SPP, SppConfig
    from repro.prefetchers.streamer import StreamPrefetcher

    cls = type(l2_pf)
    if cls is StreamPrefetcher:
        if 1 <= l2_pf.tracked_pages and len(l2_pf._streams) <= l2_pf.tracked_pages:
            return layout.SCHEME_STREAMER
        return layout.SCHEME_PY
    if cls is BOP or (cls is EBOP and _bandwidth_is_packed(l2_pf.bandwidth, dram_obj)):
        offsets = l2_pf.config.offsets
        if offsets and len(set(offsets)) == len(offsets):
            return layout.SCHEME_BOP if cls is BOP else layout.SCHEME_EBOP
        return layout.SCHEME_PY
    if cls is SMS:
        cfg = l2_pf.config
        if 1 <= cfg.lines_per_region <= 64 and cfg.at_entries >= 1 and cfg.ft_entries >= 1:
            return layout.SCHEME_SMS
        return layout.SCHEME_PY
    if cls is SPP and l2_pf.config == SppConfig():
        return layout.SCHEME_SPP
    if (
        cls is ESPP
        and l2_pf.config == SppConfig()
        and _bandwidth_is_packed(l2_pf.bandwidth, dram_obj)
    ):
        return layout.SCHEME_ESPP
    if (
        cls is DSPatch
        and l2_pf.config == DSPatchConfig()
        and _bandwidth_is_packed(l2_pf.bandwidth, dram_obj)
    ):
        return layout.SCHEME_DSPATCH
    from repro.prefetchers.composite import CompositePrefetcher

    if cls is CompositePrefetcher and len(l2_pf.components) == 2:
        a, b = l2_pf.components
        if (
            _scheme_kind(a, dram_obj) == layout.SCHEME_SPP
            and _scheme_kind(b, dram_obj) == layout.SCHEME_DSPATCH
        ):
            return layout.SCHEME_SPP_DSPATCH
    return layout.SCHEME_PY


def _next_pow2(n):
    p = 1
    while p < n:
        p <<= 1
    return p


def _i64(n):
    return np.zeros(n, dtype=np.int64)


def _carve(sizes):
    """Zeroed int64 arrays of ``sizes`` (name -> length), carved as
    contiguous views out of one block: one allocation, not one each."""
    block = _i64(sum(sizes.values()))
    out = {}
    off = 0
    for name, n in sizes.items():
        out[name] = block[off : off + n]
        off += n
    return out


def _cache_arrays(config):
    """One cache level's empty slot columns (slot = set*ways + way), the
    rows of one zeroed block; only the replacement policies the kernel
    implements qualify."""
    if config.replacement not in VICTIM_MODES:
        raise ValueError(
            f"kernel supports only lru/pf-dead-block replacement "
            f"({config.name} uses {config.replacement!r})"
        )
    block = np.zeros((len(_CACHE_FIELDS), config.num_sets * config.ways), dtype=np.int64)
    return dict(zip(_CACHE_FIELDS, block))


def _cache_geometry(ci, prefix, config):
    """A cache level's geometry slots, from its config."""
    ci[CI64[prefix + "ways"]] = config.ways
    ci[CI64[prefix + "set_mask"]] = config.num_sets - 1
    ci[CI64[prefix + "hit_latency"]] = config.hit_latency
    ci[CI64[prefix + "victim_mode"]] = VICTIM_MODES[config.replacement]


def _pack_cache(cache, arrs):
    """Lay one Cache's resident lines into its empty slot arrays."""
    sets = cache._sets
    if not any(sets):
        # A freshly built cache: every slot stays zero (invalid).
        return
    ways = cache.ways
    shift = cache._tag_shift
    for set_idx, lines in enumerate(sets):
        base = set_idx * ways
        for way, (tag, cl) in enumerate(lines.items()):
            slot = base + way
            arrs["valid"][slot] = 1
            arrs["line"][slot] = (tag << shift) | set_idx
            arrs["dirty"][slot] = 1 if cl.dirty else 0
            arrs["pref"][slot] = 1 if cl.prefetched else 0
            arrs["used"][slot] = 1 if cl.used else 0
            arrs["touch"][slot] = cl.last_touch
            arrs["ready"][slot] = cl.ready


def _unpack_cache(cache, arrs, tick):
    """Rebuild a Cache's sets from slot arrays, in exact recency order.

    Recency order is ascending ``last_touch`` (every recency event burns a
    unique tick; low-priority fills store the negated tick), so sorting by
    the touch value reproduces the OrderedDict order the object path would
    have — pinned by the parity tests.
    """
    ways = cache.ways
    shift = cache._tag_shift
    sets = [OrderedDict() for _ in range(cache.num_sets)]
    occupied = np.flatnonzero(arrs["valid"])
    if occupied.size:
        # One vectorized (set, touch) sort over the occupied slots only —
        # sparse caches (short runs) never pay for their empty slots.
        set_idx = occupied // ways
        touch_v = arrs["touch"][occupied]
        order = np.lexsort((touch_v, set_idx))
        occ = occupied[order]
        set_l = set_idx[order].tolist()
        touch_l = touch_v[order].tolist()
        line_l = arrs["line"][occ].tolist()
        dirty_l = arrs["dirty"][occ].tolist()
        pref_l = arrs["pref"][occ].tolist()
        used_l = arrs["used"][occ].tolist()
        ready_l = arrs["ready"][occ].tolist()
        for i, si in enumerate(set_l):
            tag = line_l[i] >> shift
            cl = CacheLine(tag, touch_l[i], prefetched=bool(pref_l[i]), ready=ready_l[i])
            cl.dirty = bool(dirty_l[i])
            cl.used = bool(used_l[i])
            sets[si][tag] = cl
    cache._sets = sets
    cache._tick = tick


def _cache_stats_to(ci, prefix, cache, slots):
    for off, field in enumerate(_CACHE_STATS):
        ci[slots[prefix + field]] = getattr(cache, field)


def _cache_stats_from(ci, prefix, cache, slots):
    for off, field in enumerate(_CACHE_STATS):
        setattr(cache, field, int(ci[slots[prefix + field]]))


class SharedState:
    """Flat form of the state one LLC/DRAM domain shares across cores.

    ``llc`` is, for a run, the LLC's
    :class:`~repro.memory.cache.CacheConfig`: the LLC is then laid out
    empty straight from the config and no object is built.  Tests pass a
    built :class:`~repro.memory.cache.Cache` instead, packed as their
    reference and restored by :meth:`write_back`.  The
    DRAM model is always an object — it owns the DRAM timing constants.
    """

    def __init__(self, llc, dram):
        self.llc_obj = llc if isinstance(llc, Cache) else None
        self.llc_config = llc.config if self.llc_obj is not None else llc
        self.dram_obj = dram
        si = _i64(len(SI64))
        sf = np.zeros(len(SF64), dtype=np.float64)
        self.si64 = si
        self.sf64 = sf
        self.llc = _cache_arrays(self.llc_config)
        if self.llc_obj is not None:
            _pack_cache(llc, self.llc)
            si[SI64["llc_tick"]] = llc._tick
            _cache_stats_to(si, "llc_", llc, SI64)
        # DRAM constants
        si[SI64["tCL"]] = dram.tCL
        si[SI64["tRCD"]] = dram.tRCD
        si[SI64["tRP"]] = dram.tRP
        si[SI64["tRC"]] = dram.tRC
        si[SI64["burst"]] = dram.burst
        si[SI64["ch_mask"]] = dram._channel_mask
        si[SI64["ch_bits"]] = dram._channel_bits
        si[SI64["bank_mask"]] = dram._bank_mask
        si[SI64["bank_bits"]] = dram._bank_bits
        si[SI64["row_shift"]] = dram._row_shift
        si[SI64["banks_per_channel"]] = dram.config.banks_per_channel
        si[SI64["pf_drop_backlog"]] = dram._prefetch_drop_backlog
        si[SI64["dem_preempt_bursts"]] = dram._demand_preempt_bursts
        si[SI64["dem_preempt_acts"]] = dram._demand_preempt_acts
        # DRAM statistics
        si[SI64["dram_reads"]] = dram.reads
        si[SI64["dram_writes"]] = dram.writes
        si[SI64["dram_row_hits"]] = dram.row_hits
        si[SI64["dram_row_misses"]] = dram.row_misses
        si[SI64["dram_busy_cycles"]] = dram.busy_cycles
        si[SI64["dram_prefetches_dropped"]] = dram.prefetches_dropped
        si[SI64["dram_last_data_done"]] = dram._last_data_done
        si[SI64["dram_stats_start"]] = dram._stats_start_cycle
        # Bank and channel queue state, bank-major within each channel
        banks = [bank for channel in dram._channels for bank in channel.banks]
        self.bank_open = np.array([b.open_row for b in banks], dtype=np.int64)
        self.bank_nextact = np.array([b.next_activate_cycle for b in banks], dtype=np.int64)
        self.bank_rowready = np.array([b.row_ready_cycle for b in banks], dtype=np.int64)
        self.ch_busfree = np.array([c.bus_free_cycle for c in dram._channels], dtype=np.int64)
        self.ch_demandfree = np.array(
            [c.demand_bus_free_cycle for c in dram._channels], dtype=np.int64
        )
        # Bandwidth monitor
        mon = dram.monitor
        si[SI64["mon_window_cycles"]] = mon.window_cycles
        si[SI64["mon_window_end"]] = mon._window_end
        si[SI64["mon_total_cas"]] = mon.total_cas
        for i in range(4):
            si[SI64[f"mon_bucket{i}"]] = mon._bucket_cycles[i]
        si[SI64["mon_last_sample"]] = mon._last_sample_cycle
        sf[SF64["mon_counter"]] = mon._counter
        lo, mid, hi = mon._thresholds
        sf[SF64["mon_thr_lo"]] = lo
        sf[SF64["mon_thr_mid"]] = mid
        sf[SF64["mon_thr_hi"]] = hi

    def dram_counters(self):
        """The run's :class:`~repro.memory.dram.DramCounters`, read from the
        live slots (what :meth:`DramModel.counters` reads after write-back)."""
        si = self.si64
        return DramCounters(
            int(si[SI64["dram_reads"]]),
            int(si[SI64["dram_writes"]]),
            int(si[SI64["dram_last_data_done"]]),
            int(si[SI64["dram_stats_start"]]),
            tuple(int(si[SI64[f"mon_bucket{i}"]]) for i in range(4)),
        )

    def write_back(self):
        """Restore the packed LLC and the DRAM object from the flat form."""
        llc = self.llc_obj
        if llc is None:
            raise RuntimeError("an LLC laid out from its config has no object to restore")
        si = self.si64
        sf = self.sf64
        dram = self.dram_obj
        _unpack_cache(llc, self.llc, int(si[SI64["llc_tick"]]))
        _cache_stats_from(si, "llc_", llc, SI64)
        dram.reads = int(si[SI64["dram_reads"]])
        dram.writes = int(si[SI64["dram_writes"]])
        dram.row_hits = int(si[SI64["dram_row_hits"]])
        dram.row_misses = int(si[SI64["dram_row_misses"]])
        dram.busy_cycles = int(si[SI64["dram_busy_cycles"]])
        dram.prefetches_dropped = int(si[SI64["dram_prefetches_dropped"]])
        dram._last_data_done = int(si[SI64["dram_last_data_done"]])
        dram._stats_start_cycle = int(si[SI64["dram_stats_start"]])
        n_banks = dram.config.banks_per_channel
        for c, channel in enumerate(dram._channels):
            channel.bus_free_cycle = int(self.ch_busfree[c])
            channel.demand_bus_free_cycle = int(self.ch_demandfree[c])
            for b, bank in enumerate(channel.banks):
                idx = c * n_banks + b
                bank.open_row = int(self.bank_open[idx])
                bank.next_activate_cycle = int(self.bank_nextact[idx])
                bank.row_ready_cycle = int(self.bank_rowready[idx])
        mon = dram.monitor
        mon._window_end = int(si[SI64["mon_window_end"]])
        mon.total_cas = int(si[SI64["mon_total_cas"]])
        mon._bucket_cycles = [int(si[SI64[f"mon_bucket{i}"]]) for i in range(4)]
        mon._last_sample_cycle = int(si[SI64["mon_last_sample"]])
        mon._counter = float(sf[SF64["mon_counter"]])


#: The L1 stride prefetcher's table geometry as ``(entries, degree,
#: confidence threshold, confidence max)``: the stock one a config-built
#: core uses, and the dummy slots of a core without one.
_STRIDE_STOCK = (
    PcStridePrefetcher.TABLE_ENTRIES,
    PcStridePrefetcher.DEGREE,
    PcStridePrefetcher.CONFIDENCE_THRESHOLD,
    PcStridePrefetcher.CONFIDENCE_MAX,
)
_STRIDE_NONE = (1, 1, 2, 3)
_STRIDE_FIELDS = ("stride_valid", "stride_tag", "stride_last", "stride_stride", "stride_conf")
_MSHRS = ("mshr_l1", "mshr_l2", "mshr_llc")


class KernelState:
    """Flat form of one core: execution + private L1/L2 + MSHRs + stride.

    ``KernelState(execution, trace, shared)`` packs a built
    ``CoreExecution`` and its hierarchy, fresh or mid-run, and
    :meth:`write_back` restores them; :meth:`from_config` lays a fresh
    core out straight from a ``SystemConfig`` with no object built — the
    state packing a freshly built execution gives, slot for slot.  With
    ``record_pollution`` the kernel also records the three logs
    :class:`repro.observe.sinks.PollutionCollector` derives on the object
    path (see :meth:`pollution_logs`).
    """

    def __init__(self, execution, trace, shared, record_pollution=False):
        hier = execution.hierarchy
        self.execution = execution
        self.hierarchy = hier
        l1_pf = hier.l1_prefetcher
        if l1_pf is not None and type(l1_pf) is not PcStridePrefetcher:
            raise ValueError("kernel supports only the stock PC-stride L1 prefetcher")
        stride = None
        if l1_pf is not None:
            stride = (
                l1_pf.table_entries,
                l1_pf.degree,
                l1_pf.CONFIDENCE_THRESHOLD,
                l1_pf.CONFIDENCE_MAX,
            )
        self._allocate(
            execution.model,
            hier.config,
            trace,
            shared,
            stride,
            hier.prefetch_queue_size,
            hier._merge_bound,
            record_pollution,
        )
        ci = self.ci64
        cf = self.cf64

        # Core execution state
        ci[CI64["pos"]] = execution._pos
        ci[CI64["end"]] = execution._pos
        ci[CI64["instr"]] = execution._instr
        hits = execution._hits
        ci[CI64["hit_l1"]] = hits[0]
        ci[CI64["hit_l2"]] = hits[1]
        ci[CI64["hit_llc"]] = hits[2]
        ci[CI64["hit_dram"]] = hits[3]
        cf[CF64["retire"]] = execution._retire
        cf[CF64["last_load_done"]] = execution._last_load_done
        window = execution._window
        if len(window) >= len(self.win_idx):
            raise ValueError("ROB checkpoint window exceeds kernel ring capacity")
        for i, (idx, ret) in enumerate(window):
            self.win_idx[i] = idx
            self.win_ret[i] = ret
        ci[CI64["win_len"]] = len(window)

        # Private caches
        for name, cache in (("l1", hier.l1), ("l2", hier.l2)):
            _pack_cache(cache, {f: getattr(self, f"{name}_{f}") for f in _CACHE_FIELDS})
            ci[CI64[f"{name}_tick"]] = cache._tick
            _cache_stats_to(ci, f"{name}_", cache, CI64)

        # MSHRs (heap arrays sized to capacity: the allocate rule never
        # lets the heap outgrow it)
        for name, mshr in zip(_MSHRS, (hier.l1_mshr, hier.l2_mshr, hier.llc_mshr)):
            heap = sorted(mshr._ready_heap)
            getattr(self, name)[: len(heap)] = heap
            ci[CI64[f"{name}_len"]] = len(heap)
            ci[CI64[f"{name}_allocations"]] = mshr.allocations
            ci[CI64[f"{name}_stall"]] = mshr.stall_cycles

        # Hierarchy bookkeeping
        ci[CI64["demand_accesses"]] = hier.demand_accesses
        for i, (ln, ready) in enumerate(hier._in_flight.items()):
            self.infl_line[i] = ln
            self.infl_ready[i] = ready
        ci[CI64["inflight_len"]] = len(hier._in_flight)
        pf = hier.pf_stats
        for field in _PF_STATS:
            ci[CI64["pf_" + field]] = getattr(pf, field)

        # L1 stride prefetcher
        if l1_pf is not None:
            ci[CI64["stride_trainings"]] = l1_pf.trainings
            for i, entry in enumerate(l1_pf._table):
                if entry is not None:
                    self.stride_valid[i] = 1
                    self.stride_tag[i] = entry.tag
                    self.stride_last[i] = entry.last_line
                    self.stride_stride[i] = entry.stride
                    self.stride_conf[i] = entry.confidence

        self._pack_scheme(hier.l2_prefetcher)

    @classmethod
    def from_config(cls, config, l2_pf, trace, shared, record_pollution=False):
        """A fresh core laid out straight from ``config`` (a
        ``SystemConfig``) with ``l2_pf`` as its L2 scheme: no cache,
        hierarchy, execution or L1 prefetcher object is built, and there
        is nothing to write back."""
        self = cls.__new__(cls)
        self.execution = None
        self.hierarchy = None
        hier = config.hierarchy
        self._allocate(
            config.core,
            hier,
            trace,
            shared,
            _STRIDE_STOCK if config.l1_stride else None,
            PREFETCH_QUEUE_SIZE,
            shared.dram_obj.demand_merge_bound(),
            record_pollution,
        )
        self._pack_scheme(l2_pf)
        return self

    def _allocate(
        self, model, hier_cfg, trace, shared, stride, queue_size, merge_bound, record_pollution
    ):
        """Every array and slot of a fresh core: constants set, state
        empty.  ``stride`` is the L1 stride prefetcher's geometry, or
        ``None`` without one.  The per-core int64 arrays are carved from
        one block and each cache level is one block."""
        self.shared = shared
        ci = _i64(len(CI64))
        cf = np.zeros(len(CF64), dtype=np.float64)
        self.ci64 = ci
        self.cf64 = cf

        # Trace operands, one flat array per field (shared with the trace's
        # own arrays where dtypes already match — the kernel never writes
        # them).
        from repro.cpu.trace import FLAG_DEP, FLAG_WRITE

        self.op_gap = np.ascontiguousarray(trace.gaps, dtype=np.int64)
        self.op_pc = np.ascontiguousarray(trace.pcs, dtype=np.int64)
        self.op_addr = np.ascontiguousarray(trace.addrs, dtype=np.int64)
        flags = trace.flags
        self.op_write = ((flags & FLAG_WRITE) != 0).astype(np.int64)
        self.op_dep = ((flags & FLAG_DEP) != 0).astype(np.int64)

        entries, degree, conf_threshold, conf_max = stride or _STRIDE_NONE
        if degree > PF_BUF_CAP:
            raise ValueError("stride degree exceeds kernel scratch capacity")
        win_cap = _next_pow2(model.rob_size + 16)
        mshr_caps = (hier_cfg.l1.mshrs, hier_cfg.l2.mshrs, hier_cfg.llc.mshrs)
        log_cap = LOG_CAP0 if record_pollution else 0
        sizes = {"win_idx": win_cap}
        sizes.update(zip(_MSHRS, mshr_caps))
        sizes.update(infl_line=queue_size, infl_ready=queue_size)
        sizes.update(dict.fromkeys(_STRIDE_FIELDS, entries))
        sizes.update(
            note_buf=3 * (CAND_CAP0 + 16),
            cand_line=CAND_CAP0,
            cand_lp=CAND_CAP0,
            pf_buf=PF_BUF_CAP,
            train_buf=4 * layout.TB_CAP,
        )
        # Pollution logs: empty at LOG_CAP0 pairs when recording (krun
        # stops to grow them before an op they lack room for), else
        # dummies the C never touches.
        sizes.update(dict.fromkeys(_LOGS, max(2 * log_cap, 1)))
        # Scheme tables: dummies until _pack_scheme lays out a twin's.
        sizes.update(dict.fromkeys(_SCHEME_I64_ARRAYS, 1))
        for name, arr in _carve(sizes).items():
            setattr(self, name, arr)
        self.win_ret = np.zeros(win_cap, dtype=np.float64)
        self.sp_ghr_conf = np.zeros(1, dtype=np.float64)
        self.dp_pb_pattern = np.zeros(1, dtype=np.uint64)

        # Core execution constants
        ci[CI64["n_ops"]] = len(trace)
        ci[CI64["width"]] = model.width
        ci[CI64["rob_size"]] = model.rob_size
        cf[CF64["retire_step"]] = 1.0 / model.width
        ci[CI64["win_cap"]] = win_cap

        # Caches: private L1/L2, and the shared LLC's geometry
        for name, config in (("l1", hier_cfg.l1), ("l2", hier_cfg.l2)):
            for f, arr in _cache_arrays(config).items():
                setattr(self, f"{name}_{f}", arr)
            _cache_geometry(ci, name + "_", config)
        _cache_geometry(ci, "llc_", shared.llc_config)
        for name, cap in zip(_MSHRS, mshr_caps):
            ci[CI64[f"{name}_cap"]] = cap

        ci[CI64["queue_size"]] = queue_size
        ci[CI64["merge_bound"]] = merge_bound
        ci[CI64["has_l1pf"]] = 0 if stride is None else 1
        ci[CI64["stride_degree"]] = degree
        ci[CI64["stride_mask"]] = entries - 1
        ci[CI64["stride_conf_threshold"]] = conf_threshold
        ci[CI64["stride_conf_max"]] = conf_max

        ci[CI64["note_cap"]] = CAND_CAP0 + 16
        ci[CI64["cand_cap"]] = CAND_CAP0
        ci[CI64["pl_on"]] = 1 if record_pollution else 0
        for name in _LOGS:
            ci[CI64[name + "_cap"]] = log_cap

    def _pack_scheme(self, l2_pf):
        """Flag the L2 scheme and, when it has a compiled training twin,
        lay its tables out (:meth:`write_back` restores the object)."""
        ci = self.ci64
        has_l2pf = not (l2_pf is None or type(l2_pf) is NullPrefetcher)
        ci[CI64["has_l2pf"]] = 1 if has_l2pf else 0
        ci[CI64["l2pf_notes"]] = 1 if has_l2pf and _reads_notes(l2_pf) else 0
        kind = _scheme_kind(l2_pf, self.shared.dram_obj)
        self.scheme_kind = kind
        ci[CI64["scheme_kind"]] = kind
        if kind in (layout.SCHEME_SPP, layout.SCHEME_ESPP):
            self._pack_spp(l2_pf, ci)
        elif kind == layout.SCHEME_DSPATCH:
            self._pack_dspatch(l2_pf, ci)
        elif kind == layout.SCHEME_SPP_DSPATCH:
            self._pack_spp(l2_pf.components[0], ci)
            self._pack_dspatch(l2_pf.components[1], ci)
        elif kind in (layout.SCHEME_BOP, layout.SCHEME_EBOP):
            self._pack_bop(l2_pf, ci)
        elif kind == layout.SCHEME_SMS:
            self._pack_sms(l2_pf, ci)
        elif kind == layout.SCHEME_STREAMER:
            self._pack_streamer(l2_pf, ci)

    def core_counters(self, floor):
        """This core's result inputs, read from the live slots:
        ``(CoreStats, PrefetchStats, L2 demand misses, pollution logs)``
        with the stats measured from ``floor`` (see
        :func:`repro.cpu.core.measured_stats`)."""
        ci = self.ci64
        hits = (
            int(ci[CI64["hit_l1"]]),
            int(ci[CI64["hit_l2"]]),
            int(ci[CI64["hit_llc"]]),
            int(ci[CI64["hit_dram"]]),
        )
        stats = measured_stats(
            int(ci[CI64["instr"]]),
            int(ci[CI64["pos"]]),
            float(self.cf64[CF64["retire"]]),
            hits,
            floor,
        )
        pf = PrefetchStats(**{field: int(ci[CI64["pf_" + field]]) for field in _PF_STATS})
        return stats, pf, int(ci[CI64["l2_demand_misses"]]), self.pollution_logs()

    # --------------------------------------------- compiled scheme training

    def _pack_spp(self, pf, ci):
        cfg = pf.config
        n_st = cfg.st_entries
        self.sp_st_tag = np.full(n_st, -1, dtype=np.int64)
        self.sp_st_loff = _i64(n_st)
        self.sp_st_sig = _i64(n_st)
        live = [
            (i, e.tag, e.last_offset, e.signature)
            for i, e in enumerate(pf._st)
            if e is not None
        ]
        if live:
            idx, tags, loffs, sigs = np.array(live, dtype=np.int64).T
            self.sp_st_tag[idx] = tags
            self.sp_st_loff[idx] = loffs
            self.sp_st_sig[idx] = sigs
        self.sp_pt_csig = np.array(pf._pt_c_sig, dtype=np.int64)
        # Every row's (delta, c_delta) slot pairs, in one flat conversion.
        n_slots = cfg.pt_entries * cfg.delta_slots
        pairs = np.fromiter(
            chain.from_iterable(chain.from_iterable(pf._pt_slots)), np.int64, 2 * n_slots
        ).reshape(n_slots, 2)
        self.sp_pt_delta = np.ascontiguousarray(pairs[:, 0])
        self.sp_pt_cdelta = np.ascontiguousarray(pairs[:, 1])
        n_ghr = cfg.ghr_entries
        ghr = pf._ghr
        self.sp_ghr_sig = _i64(n_ghr)
        self.sp_ghr_conf = np.zeros(n_ghr, dtype=np.float64)
        self.sp_ghr_loff = _i64(n_ghr)
        self.sp_ghr_delta = _i64(n_ghr)
        if ghr:
            n = len(ghr)
            self.sp_ghr_sig[:n] = [g.signature for g in ghr]
            self.sp_ghr_conf[:n] = [g.confidence for g in ghr]
            self.sp_ghr_loff[:n] = [g.last_offset for g in ghr]
            self.sp_ghr_delta[:n] = [g.delta for g in ghr]
        ci[CI64["sp_ghr_len"]] = len(ghr)
        self.sp_flt = np.array(pf._filter, dtype=np.int64)
        ci[CI64["sp_trainings"]] = pf.trainings
        ci[CI64["sp_filtered"]] = pf.filtered
        ci[CI64["sp_fb_issued"]] = pf.feedback_issued
        ci[CI64["sp_fb_useful"]] = pf.feedback_useful

    def _pack_dspatch(self, pf, ci):
        cfg = pf.config
        n_pb = cfg.pb_entries
        n_spt = cfg.spt_entries
        self.dp_pb_page = _i64(n_pb)
        # Patterns are 64-bit with bit 63 reachable (line offset 63), so
        # they live in uint64 — int64 would overflow on pack.
        self.dp_pb_pattern = np.zeros(n_pb, dtype=np.uint64)
        self.dp_pb_trig_sig = np.full(2 * n_pb, -1, dtype=np.int64)
        self.dp_pb_trig_off = _i64(2 * n_pb)
        # Dict order is LRU order (oldest first); the C side keeps the same
        # invariant over the packed arrays.
        entries = list(pf.page_buffer._pages.values())
        n = len(entries)
        if n:
            self.dp_pb_page[:n] = [e.page for e in entries]
            self.dp_pb_pattern[:n] = [e.pattern for e in entries]
            triggers = [(2 * i + seg, t) for i, e in enumerate(entries)
                        for seg, t in enumerate(e.triggers) if t is not None]
            if triggers:
                slots, pairs = zip(*triggers)
                sig_off = np.array(pairs, dtype=np.int64)
                self.dp_pb_trig_sig[list(slots)] = sig_off[:, 0]
                self.dp_pb_trig_off[list(slots)] = sig_off[:, 1]
        ci[CI64["dp_pb_len"]] = n
        ci[CI64["dp_pb_evictions"]] = pf.page_buffer.evictions
        # One row per SPT entry: the patterns, then each counter pair.
        spt = np.array(
            [
                (e.covp, e.accp, *e.measure_covp, *e.or_count, *e.measure_accp)
                for e in pf.spt._table
            ],
            dtype=np.int64,
        )
        self.dp_spt_cov = np.ascontiguousarray(spt[:, 0])
        self.dp_spt_acc = np.ascontiguousarray(spt[:, 1])
        # Per entry, the two halves' counters side by side.
        self.dp_spt_mcov = spt[:, 2:4].flatten()
        self.dp_spt_or = spt[:, 4:6].flatten()
        self.dp_spt_macc = spt[:, 6:8].flatten()
        ci[CI64["dp_trainings"]] = pf.trainings
        ci[CI64["dp_triggers"]] = pf.triggers
        ci[CI64["dp_pred_covp"]] = pf.predictions_covp
        ci[CI64["dp_pred_accp"]] = pf.predictions_accp
        ci[CI64["dp_pred_supp"]] = pf.predictions_suppressed

    def _pack_bop(self, pf, ci):
        cfg = pf.config
        offsets = cfg.offsets
        ci[CI64["bp_n_off"]] = len(offsets)
        ci[CI64["bp_rr_mask"]] = cfg.rr_entries - 1
        ci[CI64["bp_max_round"]] = cfg.max_round
        ci[CI64["bp_max_score"]] = cfg.max_score
        ci[CI64["bp_bad_score"]] = cfg.bad_score
        ci[CI64["bp_degree"]] = cfg.degree
        ci[CI64["bp_fill_delay"]] = cfg.fill_delay_cycles
        self.bp_rr = np.array(pf._rr, dtype=np.int64)
        self.bp_offsets = np.array(offsets, dtype=np.int64)
        self.bp_scores = np.array([pf._scores[off] for off in offsets], dtype=np.int64)
        # A phase keeps at most max(degree, 4) offsets (and every one
        # can become a candidate).
        active = pf.active_offsets
        cap = max(min(max(cfg.degree, 4), len(offsets)), len(active), 1)
        self.bp_active = _i64(cap)
        self.bp_active[: len(active)] = active
        if cap > int(ci[CI64["cand_cap"]]):
            self.grow_candidates(cap)
        ci[CI64["bp_active_len"]] = len(active)
        ci[CI64["bp_test_pos"]] = pf._test_pos
        ci[CI64["bp_round"]] = pf._round
        ci[CI64["bp_trainings"]] = pf.trainings
        ci[CI64["bp_phases"]] = pf.learning_phases
        self._pack_pending(list(pf._pending_fills))

    def _pack_pending(self, pending):
        """Lay BOP's pending (ready, line) fills out from slot 0 of a ring
        with room for them and the trainings of one more op, doubled."""
        ci = self.ci64
        cap = _ring_cap(len(pending) + 1 + int(ci[CI64["stride_degree"]]))
        ring = _i64(2 * cap)
        if pending:
            ring[: 2 * len(pending)] = np.array(pending, dtype=np.int64).ravel()
        self.bp_pend = ring
        ci[CI64["bp_pend_head"]] = 0
        ci[CI64["bp_pend_len"]] = len(pending)
        ci[CI64["bp_pend_cap"]] = cap

    def _pending_list(self):
        """BOP's pending fills, oldest first, as (ready, line) tuples."""
        ci = self.ci64
        cap = int(ci[CI64["bp_pend_cap"]])
        order = (int(ci[CI64["bp_pend_head"]]) + np.arange(int(ci[CI64["bp_pend_len"]]))) & (cap - 1)
        return [tuple(pair) for pair in self.bp_pend.reshape(-1, 2)[order].tolist()]

    def grow_pending_ring(self):
        """Re-lay BOP's full pending-fill ring larger.  It is never
        truncated; the caller rebuilds the pointer table."""
        self._pack_pending(self._pending_list())

    def grow(self):
        """Serve ``RC_GROW``: grow whichever of BOP's pending-fill ring
        and the pollution logs lacks room for the next op, never
        truncating; the caller rebuilds the pointer table."""
        ci = self.ci64
        if self.scheme_kind in (layout.SCHEME_BOP, layout.SCHEME_EBOP):
            # one BOP training per below-L1 lookup
            if ci[CI64["bp_pend_len"]] + self._lookups_per_op() > ci[CI64["bp_pend_cap"]]:
                self.grow_pending_ring()
        self.reserve_logs()

    def _lookups_per_op(self):
        """Below-L1 lookups one op can make: its L1 miss and each stride
        prefetch (``krun``'s bound for the ring and the logs)."""
        ci = self.ci64
        return 1 + (int(ci[CI64["stride_degree"]]) if ci[CI64["has_l1pf"]] else 0)

    # ------------------------------------------------------ pollution logs

    def _log_room(self):
        """Pairs one op can append to each log: one per below-L1 lookup,
        and per lookup at most one fill and one victim per candidate."""
        lookups = self._lookups_per_op()
        cands = lookups * int(self.ci64[CI64["cand_cap"]])
        return {"pl_dem": lookups, "pl_fill": cands, "pl_vic": cands}

    def reserve_logs(self):
        """Grow each recording log that lacks room for one more op,
        copying every pair; the caller rebuilds any pointer table."""
        ci = self.ci64
        if not ci[CI64["pl_on"]]:
            return
        for name, room in self._log_room().items():
            n = int(ci[CI64[name + "_len"]])
            cap = int(ci[CI64[name + "_cap"]])
            if n + room <= cap:
                continue
            cap = _log_cap(cap, n + room)
            log = _i64(2 * cap)
            log[: 2 * n] = getattr(self, name)[: 2 * n]
            setattr(self, name, log)
            ci[CI64[name + "_cap"]] = cap

    def pollution_logs(self):
        """``(demand_log, prefetch_fill_log, pollution_events)`` as an
        object run with ``record_pollution_victims`` reports them:
        ``(ordinal, line)`` tuples of plain ints, and
        :class:`~repro.memory.hierarchy.PollutionEvent` victims.  Empty
        when not recording."""
        ci = self.ci64
        demands, fills, victims = (
            self._pairs(getattr(self, name), int(ci[CI64[name + "_len"]])) for name in _LOGS
        )
        return demands, fills, [PollutionEvent(o, v) for o, v in victims]

    @staticmethod
    def _pairs(log, n):
        flat = log[: 2 * n].tolist()
        return list(zip(flat[0::2], flat[1::2]))

    def _pack_sms(self, pf, ci):
        cfg = pf.config
        sets = cfg.pht_sets
        ci[CI64["sm_region_shift"]] = pf._region_shift
        ci[CI64["sm_off_mask"]] = pf._offset_mask
        ci[CI64["sm_at_cap"]] = cfg.at_entries
        ci[CI64["sm_ft_cap"]] = cfg.ft_entries
        ci[CI64["sm_pht_sets"]] = sets
        ci[CI64["sm_pht_ways"]] = cfg.pht_ways
        ci[CI64["sm_set_bits"]] = (sets - 1).bit_length()
        ci[CI64["sm_trainings"]] = pf.trainings
        ci[CI64["sm_pht_stores"]] = pf.pht_stores
        ci[CI64["sm_pht_hits"]] = pf.pht_hits
        # Stamps follow dict order (oldest first) within every table.
        stamp = 0
        for name, table, cap in (("sm_at", pf._at, cfg.at_entries), ("sm_ft", pf._ft, cfg.ft_entries)):
            arr = _i64(SM_REC * cap)
            for i, (region, e) in enumerate(table.items()):
                stamp += 1
                arr[SM_REC * i : SM_REC * (i + 1)] = (
                    region, _s64(e.pattern), e.trigger_pc, e.trigger_offset, stamp
                )
            setattr(self, name, arr)
        ways = cfg.pht_ways
        pht = _i64(SM_PHT_REC * sets * ways)
        # Only the sets holding patterns cost anything (a fresh SMS has
        # none).
        self._sm_packed_sets = []
        if any(pf._pht):
            for set_idx, pht_set in enumerate(pf._pht):
                if not pht_set:
                    continue
                self._sm_packed_sets.append(set_idx)
                for way, (tag, pattern) in enumerate(pht_set.items()):
                    stamp += 1
                    base = SM_PHT_REC * (set_idx * ways + way)
                    pht[base : base + SM_PHT_REC] = (tag, _s64(pattern), stamp)
        self.sm_pht = pht
        ci[CI64["sm_clock"]] = stamp

    def _pack_streamer(self, pf, ci):
        ci[CI64["st_tracked"]] = pf.tracked_pages
        ci[CI64["st_degree"]] = pf.degree
        ci[CI64["st_trainings"]] = pf.trainings
        # Stamps follow dict order (oldest first).
        tab = _i64(ST_REC * pf.tracked_pages)
        for i, (page, e) in enumerate(pf._streams.items()):
            tab[ST_REC * i : ST_REC * (i + 1)] = (
                page, e.last_offset, e.direction, e.confidence, i + 1
            )
        self.st_tab = tab
        ci[CI64["st_clock"]] = len(pf._streams)

    def _write_back_streamer(self, pf, ci):
        from repro.prefetchers.streamer import _StreamEntry

        pf.trainings = int(ci[CI64["st_trainings"]])
        records = self.st_tab.reshape(-1, ST_REC).tolist()
        streams = {}
        for page, offset, direction, confidence, _ in sorted(
            (r for r in records if r[4]), key=lambda r: r[4]
        ):
            entry = _StreamEntry(offset)
            entry.direction = direction
            entry.confidence = confidence
            streams[page] = entry
        pf._streams = streams

    def _write_back_bop(self, pf, ci):
        pf.trainings = int(ci[CI64["bp_trainings"]])
        pf.learning_phases = int(ci[CI64["bp_phases"]])
        pf._test_pos = int(ci[CI64["bp_test_pos"]])
        pf._round = int(ci[CI64["bp_round"]])
        pf._rr = self.bp_rr.tolist()
        pf._scores = dict(zip(pf.config.offsets, self.bp_scores.tolist()))
        pf.active_offsets = self.bp_active[: int(ci[CI64["bp_active_len"]])].tolist()
        pf._pending_fills = deque(self._pending_list())

    def _write_back_sms(self, pf, ci):
        from repro.prefetchers.sms import _RegionEntry

        pf.trainings = int(ci[CI64["sm_trainings"]])
        pf.pht_stores = int(ci[CI64["sm_pht_stores"]])
        pf.pht_hits = int(ci[CI64["sm_pht_hits"]])
        for name, attr in (("sm_at", "_at"), ("sm_ft", "_ft")):
            records = getattr(self, name).reshape(-1, SM_REC).tolist()
            table = {}
            for region, pattern, pc, offset, _ in sorted(
                (r for r in records if r[4]), key=lambda r: r[4]
            ):
                entry = _RegionEntry(pc, offset)
                entry.pattern = pattern & _U64
                table[region] = entry
            setattr(pf, attr, table)
        # Only the sets that held patterns at pack time or hold some now
        # are rebuilt, each in ascending-stamp (LRU) order.
        rec = self.sm_pht.reshape(-1, SM_PHT_REC)
        occupied = np.flatnonzero(rec[:, 2])
        set_of = occupied // pf.config.pht_ways
        order = np.lexsort((rec[occupied, 2], set_of))
        occupied = occupied[order]
        pht = pf._pht
        for set_idx in self._sm_packed_sets:
            pht[set_idx] = {}
        prev = -1
        for set_idx, tag, pattern in zip(
            set_of[order].tolist(), rec[occupied, 0].tolist(), rec[occupied, 1].tolist()
        ):
            if set_idx != prev:
                pht_set = pht[set_idx] = {}
                prev = set_idx
            pht_set[tag] = pattern & _U64

    def _write_back_spp(self, pf, ci):
        from repro.prefetchers.spp import _GhrEntry, _StEntry

        pf.trainings = int(ci[CI64["sp_trainings"]])
        pf.filtered = int(ci[CI64["sp_filtered"]])
        pf.feedback_issued = int(ci[CI64["sp_fb_issued"]])
        pf.feedback_useful = int(ci[CI64["sp_fb_useful"]])
        tags = self.sp_st_tag.tolist()
        loffs = self.sp_st_loff.tolist()
        sigs = self.sp_st_sig.tolist()
        st = [None] * len(tags)
        for i, tag in enumerate(tags):
            if tag >= 0:
                st[i] = _StEntry(tag, loffs[i], sigs[i])
        pf._st = st
        pf._pt_c_sig = self.sp_pt_csig.tolist()
        slots = pf.config.delta_slots
        deltas = self.sp_pt_delta.tolist()
        counts = self.sp_pt_cdelta.tolist()
        pf._pt_slots = [
            list(zip(deltas[i : i + slots], counts[i : i + slots]))
            for i in range(0, len(deltas), slots)
        ]
        pf._ghr = [
            _GhrEntry(
                int(self.sp_ghr_sig[i]),
                float(self.sp_ghr_conf[i]),
                int(self.sp_ghr_loff[i]),
                int(self.sp_ghr_delta[i]),
            )
            for i in range(int(ci[CI64["sp_ghr_len"]]))
        ]
        pf._filter = self.sp_flt.tolist()

    def _write_back_dspatch(self, pf, ci):
        from repro.core.page_buffer import PageBufferEntry

        pf.trainings = int(ci[CI64["dp_trainings"]])
        pf.triggers = int(ci[CI64["dp_triggers"]])
        pf.predictions_covp = int(ci[CI64["dp_pred_covp"]])
        pf.predictions_accp = int(ci[CI64["dp_pred_accp"]])
        pf.predictions_suppressed = int(ci[CI64["dp_pred_supp"]])
        pb = pf.page_buffer
        pb.evictions = int(ci[CI64["dp_pb_evictions"]])
        pages = {}
        for i in range(int(ci[CI64["dp_pb_len"]])):
            entry = PageBufferEntry(int(self.dp_pb_page[i]))
            entry.pattern = int(self.dp_pb_pattern[i])
            for seg in (0, 1):
                sig = int(self.dp_pb_trig_sig[2 * i + seg])
                if sig >= 0:
                    entry.triggers[seg] = (sig, int(self.dp_pb_trig_off[2 * i + seg]))
            pages[entry.page] = entry
        pb._pages = pages
        for i, e in enumerate(pf.spt._table):
            e.covp = int(self.dp_spt_cov[i])
            e.accp = int(self.dp_spt_acc[i])
            e.measure_covp = [
                int(self.dp_spt_mcov[2 * i]),
                int(self.dp_spt_mcov[2 * i + 1]),
            ]
            e.or_count = [int(self.dp_spt_or[2 * i]), int(self.dp_spt_or[2 * i + 1])]
            e.measure_accp = [
                int(self.dp_spt_macc[2 * i]),
                int(self.dp_spt_macc[2 * i + 1]),
            ]

    # ------------------------------------------------------------- plumbing

    def grow_candidates(self, n):
        """Reallocate the (empty) candidate and note buffers, doubling
        their capacity until ``n`` candidates fit; the caller rebuilds
        any pointer table that held the old ones."""
        ci = self.ci64
        cap = int(ci[CI64["cand_cap"]])
        while cap < n:
            cap *= 2
        self.cand_line = _i64(cap)
        self.cand_lp = _i64(cap)
        self.note_buf = _i64(3 * (cap + 16))
        ci[CI64["cand_cap"]] = cap
        ci[CI64["note_cap"]] = cap + 16
        # More candidates per lookup: the logs need more room per op.
        self.reserve_logs()

    def array_map(self):
        """Every kernel array by its :data:`layout.PTR` name."""
        shared = self.shared
        m = {
            "ci64": self.ci64,
            "cf64": self.cf64,
            "si64": shared.si64,
            "sf64": shared.sf64,
            "op_gap": self.op_gap,
            "op_pc": self.op_pc,
            "op_addr": self.op_addr,
            "op_write": self.op_write,
            "op_dep": self.op_dep,
            "win_idx": self.win_idx,
            "win_ret": self.win_ret,
            "mshr_l1": self.mshr_l1,
            "mshr_l2": self.mshr_l2,
            "mshr_llc": self.mshr_llc,
            "stride_valid": self.stride_valid,
            "stride_tag": self.stride_tag,
            "stride_last": self.stride_last,
            "stride_stride": self.stride_stride,
            "stride_conf": self.stride_conf,
            "bank_open": shared.bank_open,
            "bank_nextact": shared.bank_nextact,
            "bank_rowready": shared.bank_rowready,
            "ch_busfree": shared.ch_busfree,
            "ch_demandfree": shared.ch_demandfree,
            "infl_line": self.infl_line,
            "infl_ready": self.infl_ready,
            "note_buf": self.note_buf,
            "cand_line": self.cand_line,
            "cand_lp": self.cand_lp,
            "pf_buf": self.pf_buf,
            "train_buf": self.train_buf,
            "sp_ghr_conf": self.sp_ghr_conf,
            "dp_pb_pattern": self.dp_pb_pattern,
        }
        for nm in _SCHEME_I64_ARRAYS + _LOGS:
            m[nm] = getattr(self, nm)
        for lvl in ("l1", "l2"):
            for f in _CACHE_FIELDS:
                m[f"{lvl}_{f}"] = getattr(self, f"{lvl}_{f}")
        for f in _CACHE_FIELDS:
            m[f"llc_{f}"] = shared.llc[f]
        assert set(m) == set(layout.PTR_NAMES)
        return m

    # ------------------------------------------------------------ write-back

    def write_back(self):
        """Restore the core's objects (execution, hierarchy) from flat form.

        Shared state (LLC/DRAM) is restored separately via
        :meth:`SharedState.write_back` — once per domain, not per core.
        """
        ex = self.execution
        if ex is None:
            raise RuntimeError("a core laid out from its config has no objects to restore")
        ci = self.ci64
        cf = self.cf64
        hier = self.hierarchy

        ex._pos = int(ci[CI64["pos"]])
        ex._instr = int(ci[CI64["instr"]])
        ex._retire = float(cf[CF64["retire"]])
        ex._last_load_done = float(cf[CF64["last_load_done"]])
        ex._hits = [
            int(ci[CI64["hit_l1"]]),
            int(ci[CI64["hit_l2"]]),
            int(ci[CI64["hit_llc"]]),
            int(ci[CI64["hit_dram"]]),
        ]
        head = int(ci[CI64["win_head"]])
        length = int(ci[CI64["win_len"]])
        cap = int(ci[CI64["win_cap"]])
        win_idx = self.win_idx
        win_ret = self.win_ret
        window = deque()
        for i in range(length):
            j = (head + i) & (cap - 1)
            window.append((int(win_idx[j]), float(win_ret[j])))
        ex._window = window

        for name, cache in (("l1", hier.l1), ("l2", hier.l2)):
            arrs = {f: getattr(self, f"{name}_{f}") for f in _CACHE_FIELDS}
            _unpack_cache(cache, arrs, int(ci[CI64[f"{name}_tick"]]))
            _cache_stats_from(ci, f"{name}_", cache, CI64)

        for name, mshr in (
            ("mshr_l1", hier.l1_mshr),
            ("mshr_l2", hier.l2_mshr),
            ("mshr_llc", hier.llc_mshr),
        ):
            length = int(ci[CI64[f"{name}_len"]])
            mshr._ready_heap = sorted(getattr(self, name)[:length].tolist())
            mshr.allocations = int(ci[CI64[f"{name}_allocations"]])
            mshr.stall_cycles = int(ci[CI64[f"{name}_stall"]])

        hier.demand_accesses = int(ci[CI64["demand_accesses"]])
        n_in = int(ci[CI64["inflight_len"]])
        hier._in_flight = dict(
            zip(self.infl_line[:n_in].tolist(), self.infl_ready[:n_in].tolist())
        )
        pf = hier.pf_stats
        for field in _PF_STATS:
            setattr(pf, field, int(ci[CI64["pf_" + field]]))

        l1_pf = hier.l1_prefetcher
        if l1_pf is not None:
            l1_pf.trainings = int(ci[CI64["stride_trainings"]])
            valid = self.stride_valid.tolist()
            tags = self.stride_tag.tolist()
            lasts = self.stride_last.tolist()
            strides = self.stride_stride.tolist()
            confs = self.stride_conf.tolist()
            table = [None] * len(valid)
            for i in range(len(valid)):
                if valid[i]:
                    entry = _StrideEntry(tags[i], lasts[i])
                    entry.stride = strides[i]
                    entry.confidence = confs[i]
                    table[i] = entry
            l1_pf._table = table

        # Compiled scheme training: restore the scheme objects.
        if self.scheme_kind:
            l2_pf = hier.l2_prefetcher
            if self.scheme_kind == layout.SCHEME_DSPATCH:
                self._write_back_dspatch(l2_pf, ci)
            elif self.scheme_kind == layout.SCHEME_SPP_DSPATCH:
                self._write_back_spp(l2_pf.components[0], ci)
                self._write_back_dspatch(l2_pf.components[1], ci)
            elif self.scheme_kind in (layout.SCHEME_BOP, layout.SCHEME_EBOP):
                self._write_back_bop(l2_pf, ci)
            elif self.scheme_kind == layout.SCHEME_SMS:
                self._write_back_sms(l2_pf, ci)
            elif self.scheme_kind == layout.SCHEME_STREAMER:
                self._write_back_streamer(l2_pf, ci)
            else:
                self._write_back_spp(l2_pf, ci)
