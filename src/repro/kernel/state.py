"""KernelState: the packed flat-array form of the simulated machine.

Layer 1 of the kernel subsystem (docs/engine.md, "compiled kernel"):
everything the per-access hot path mutates — cache tags/valid/recency/
prefetch bits, MSHR heaps, the in-flight prefetch queue, DRAM bank and
bus state, the bandwidth monitor, core retirement state — packed
into flat ``int64``/``float64`` NumPy arrays laid out by
:mod:`repro.kernel.layout`.

A compiled run lays its state out straight from the ``SystemConfig``
(:meth:`KernelState.from_config`, and :class:`SharedState` given the
LLC's ``CacheConfig``): every array is allocated zeroed in bulk, only
the constants are set, and the one object it reads is the L2 scheme
(its tables, when it has a compiled twin, are converted whole).  The
run's results come from the flat counters (:meth:`KernelState.core_counters`,
:meth:`SharedState.dram_counters`).

Packing objects is the test reference: ``KernelState(execution, ...)``
and ``SharedState(cache, dram)`` pack a built (fresh, mid-run or
finished) ``CoreExecution`` + ``MemoryHierarchy`` + ``Cache`` +
``DramModel``.  The translation runs one way, objects to slots: tests
compare a twin's state with the object model's in flat form, by packing
the object run's end state.

Shared state (the LLC, DRAM, and bandwidth monitor of a multi-programmed
mix) lives in a :class:`SharedState` that all per-core states reference,
mirroring how the object model shares one ``Cache``/``DramModel``.
"""

from itertools import chain

import numpy as np

from repro.constants import LINES_PER_PAGE
from repro.kernel import layout
from repro.kernel.layout import (
    CAND_CAP0,
    CF64,
    CI64,
    HITS,
    PF_BUF_CAP,
    SCHEME_FAMILY,
    SF64,
    SI64,
    SM_PHT_REC,
    SM_REC,
    ST_REC,
    TWIN_ARRAYS,
    TWINS,
)
from repro.cpu.core import measured_stats
from repro.memory.cache import Cache, victim_mode
from repro.memory.dram import DramCounters
from repro.memory.hierarchy import PREFETCH_QUEUE_SIZE, PollutionEvent, PrefetchStats
from repro.prefetchers.base import NullPrefetcher, Prefetcher
from repro.prefetchers.composite import CompositePrefetcher
from repro.prefetchers.stride import PcStridePrefetcher

_CACHE_FIELDS = ("valid", "line", "pref", "used", "touch", "ready")
_PF_STATS = ("issued", "useful", "late", "useless")
#: The pollution logs, in the order of ``RunResult``'s three log fields
#: (``demand_log``, ``prefetch_fill_log``, ``pollution_events``).
_LOGS = ("pl_dem", "pl_fill", "pl_vic")
#: Initial capacity of each pollution log, in (ordinal, line) pairs.
LOG_CAP0 = 1024

#: The scheme methods the kernel calls: a twin would never call an
#: instance-level replacement of one of them.
_SCHEME_HOOKS = ("train", "note_useful_prefetch", "note_useless_prefetch")
_NOTE_HOOKS = _SCHEME_HOOKS[1:]


def _s64(pattern):
    """A 64-bit pattern as the int64 with the same bits (for packing)."""
    return pattern - (1 << 64) if pattern >> 63 else pattern


def _stamp(rows, records, stamp):
    """Lay ``records`` (oldest first) into the stamped table ``rows`` (one
    row per entry, its stamp last) from row 0 on, stamping them from
    ``stamp + 1``; returns the last stamp.  SMS's AT, FT and PHT sets and
    the streamer's page table are stamped tables."""
    for i, record in enumerate(records):
        stamp += 1
        rows[i] = (*record, stamp)
    return stamp


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

    Schemes built by the compiled driver hold the run's
    :class:`~repro.kernel.execution.KernelDomain` itself — the domain
    whose shared state packs ``dram_obj`` — and its ``bucket`` queries hit
    the same flat monitor slots the generated C mutates, so the C twin's
    inline bucket reads are equivalent.  A scheme wired to some *other*
    monitor must keep the Python crossing.
    """
    if bw is dram_obj.monitor or bw is dram_obj:
        return True
    from repro.kernel.execution import KernelDomain

    return isinstance(bw, KernelDomain) and bw.shared_state.dram_obj is dram_obj


def _reads_notes(pf):
    """False when ``pf``'s bound note hooks are Prefetcher's no-ops, or
    when ``pf`` is a composite whose own note hooks, not replaced on the
    instance, fan out to components that all read none."""
    if type(pf) is CompositePrefetcher and not any(name in pf.__dict__ for name in _NOTE_HOOKS):
        return any(_reads_notes(component) for component in pf.components)
    return any(
        getattr(getattr(pf, name), "__func__", None) is not getattr(Prefetcher, name)
        for name in _NOTE_HOOKS
    )


def _components(l2_pf):
    """The schemes a composite runs, in arbitration order, or ``l2_pf``
    alone."""
    return l2_pf.components if type(l2_pf) is CompositePrefetcher else (l2_pf,)


def _unhooked(pf):
    """No event tracing on ``pf`` and none of the kernel's hooks replaced
    on the instance: a twin would never call them."""
    return getattr(pf, "trace_emit", None) is None and not any(
        name in getattr(pf, "__dict__", ()) for name in _SCHEME_HOOKS
    )


#: The twin record of each twinned class.
_TWIN_OF = {twin.cls: twin for twin in TWINS}


def _twin_kind(pf, dram_obj):
    """The SCHEME_* kind of ``pf``'s compiled training twin, or 0."""
    twin = _TWIN_OF.get(type(pf))
    if twin is None or not _unhooked(pf):
        return 0
    if twin.bandwidth and not _bandwidth_is_packed(pf.bandwidth, dram_obj):
        return 0
    return twin.kind if twin.fits(pf) else 0


def _scheme_kind(l2_pf, dram_obj):
    """The kinds of ``l2_pf``'s compiled training twins, in arbitration
    order: one for a plain scheme, one per component for a composite, or
    ``SCHEME_PY`` (the empty tuple) when it crosses into Python.

    Each scheme, the composite and every component alike, must be of
    the exact class of a :data:`~repro.kernel.layout.TWINS` record (a
    subclass may override what the twins hardcode), with no event
    tracing and none of the kernel's hooks (``train`` and the two note
    hooks) replaced on the instance — a twin would never call them.
    Bandwidth-aware schemes must read the packed DRAM monitor.  Every
    twin reads its config from flat-state slots, so any config qualifies
    that the C can hold (the record's ``fits``): the DSPatch ablations
    twin, but not uncompressed DSPatch (``dspatch-64b``).  A composite
    twins when every component does and no two components share a table
    family (:data:`~repro.kernel.layout.SCHEME_FAMILY`: SPP/eSPP,
    BOP/eBOP).  Everything else (``fdp:`` wrappers, ``ampm``,
    ``dspatch-64b``, user subclasses) crosses into Python on every L2
    training access.
    """
    if l2_pf is None or (type(l2_pf) is CompositePrefetcher and not _unhooked(l2_pf)):
        return layout.SCHEME_PY
    kinds = tuple(_twin_kind(pf, dram_obj) for pf in _components(l2_pf))
    families = {SCHEME_FAMILY.get(kind) for kind in kinds}
    if 0 in kinds or len(families) < len(kinds):
        return layout.SCHEME_PY
    return kinds


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
    rows of one zeroed block."""
    block = np.zeros((len(_CACHE_FIELDS), config.num_sets * config.ways), dtype=np.int64)
    return dict(zip(_CACHE_FIELDS, block))


def _cache_geometry(ci, prefix, config):
    """A cache level's geometry slots, from its config (an unknown
    replacement policy raises :class:`Cache`'s ``ValueError``)."""
    ci[CI64[prefix + "ways"]] = config.ways
    ci[CI64[prefix + "set_mask"]] = config.num_sets - 1
    ci[CI64[prefix + "hit_latency"]] = config.hit_latency
    ci[CI64[prefix + "victim_mode"]] = victim_mode(config.replacement)


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
            arrs["pref"][slot] = 1 if cl.prefetched else 0
            arrs["used"][slot] = 1 if cl.used else 0
            arrs["touch"][slot] = cl.last_touch
            arrs["ready"][slot] = cl.ready


class SharedState:
    """Flat form of the state one LLC/DRAM domain shares across cores.

    ``llc`` is, for a run, the LLC's
    :class:`~repro.memory.cache.CacheConfig`: the LLC is then laid out
    empty straight from the config and no object is built.  Tests pass a
    built :class:`~repro.memory.cache.Cache` instead, packed as their
    reference.  The DRAM model is always an object — it owns the DRAM
    timing constants.
    """

    def __init__(self, llc, dram):
        packed = isinstance(llc, Cache)
        self.llc_config = llc.config if packed else llc
        self.dram_obj = dram
        si = _i64(len(SI64))
        sf = np.zeros(len(SF64), dtype=np.float64)
        self.si64 = si
        self.sf64 = sf
        self.llc = _cache_arrays(self.llc_config)
        if packed:
            _pack_cache(llc, self.llc)
            si[SI64["llc_tick"]] = llc._tick
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
        for i in range(4):
            si[SI64[f"mon_bucket{i}"]] = mon._bucket_cycles[i]
        sf[SF64["mon_counter"]] = mon._counter
        lo, mid, hi = mon._thresholds
        sf[SF64["mon_thr_lo"]] = lo
        sf[SF64["mon_thr_mid"]] = mid
        sf[SF64["mon_thr_hi"]] = hi

    def dram_counters(self):
        """The run's :class:`~repro.memory.dram.DramCounters`, read from the
        live slots (what :meth:`DramModel.counters` reads on the object
        path)."""
        si = self.si64
        return DramCounters(
            int(si[SI64["dram_reads"]]),
            int(si[SI64["dram_writes"]]),
            int(si[SI64["dram_last_data_done"]]),
            int(si[SI64["dram_stats_start"]]),
            tuple(int(si[SI64[f"mon_bucket{i}"]]) for i in range(4)),
        )

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
    ``CoreExecution`` and its hierarchy, fresh, mid-run or finished;
    :meth:`from_config` lays a fresh core out straight from a
    ``SystemConfig`` with no object built — the state packing a freshly
    built execution gives, slot for slot.  With
    ``record_pollution`` the kernel also records the three logs
    :class:`repro.observe.sinks.PollutionCollector` derives on the object
    path (see :meth:`pollution_logs`).
    """

    def __init__(self, execution, trace, shared, record_pollution=False):
        hier = execution.hierarchy
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
        ci[CI64["instr"]] = execution._instr
        ci[HITS] = execution._hits
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
        ci[CI64["l2_demand_misses"]] = hier.l2_demand_misses

        # MSHRs (heap arrays sized to capacity: the allocate rule never
        # lets the heap outgrow it)
        for name, mshr in zip(_MSHRS, (hier.l1_mshr, hier.l2_mshr, hier.llc_mshr)):
            heap = sorted(mshr._ready_heap)
            getattr(self, name)[: len(heap)] = heap
            ci[CI64[f"{name}_len"]] = len(heap)

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
        hierarchy, execution or L1 prefetcher object is built."""
        self = cls.__new__(cls)
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
        sizes.update(cand_line=CAND_CAP0, cand_lp=CAND_CAP0, pf_buf=PF_BUF_CAP)
        # Pollution logs: empty at LOG_CAP0 pairs when recording (krun
        # has them grown before an op they lack room for), else dummies
        # the C never touches.
        sizes.update(dict.fromkeys(_LOGS, max(2 * log_cap, 1)))
        for name, arr in _carve(sizes).items():
            setattr(self, name, arr)
        self.win_ret = np.zeros(win_cap, dtype=np.float64)
        # Scheme tables: dummies until _pack_scheme lays out a twin's.
        for table in TWIN_ARRAYS:
            setattr(self, table.name, np.zeros(1, dtype=table.dtype))

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

        ci[CI64["cand_cap"]] = CAND_CAP0
        ci[CI64["pl_on"]] = 1 if record_pollution else 0
        for name in _LOGS:
            ci[CI64[name + "_cap"]] = log_cap

    def _pack_scheme(self, l2_pf):
        """Flag the L2 scheme and, when it has compiled training twins,
        list them and lay each one's tables out."""
        ci = self.ci64
        has_l2pf = not (l2_pf is None or type(l2_pf) is NullPrefetcher)
        kinds = _scheme_kind(l2_pf, self.shared.dram_obj)
        ci[CI64["has_l2pf"]] = 1 if has_l2pf else 0
        # No twin reads notes: only a crossing scheme's hooks take them.
        ci[CI64["l2pf_notes"]] = 1 if has_l2pf and not kinds and _reads_notes(l2_pf) else 0
        self.scheme_kind = kinds
        ci[CI64["scheme_len"]] = len(kinds)
        for i, (kind, pf) in enumerate(zip(kinds, _components(l2_pf))):
            ci[CI64[f"scheme_{i}"]] = kind
            self._pack_twin(SCHEME_FAMILY[kind], pf)
        # Each twin appends at most one candidate per line of the page.
        if LINES_PER_PAGE * len(kinds) > ci[CI64["cand_cap"]]:
            self.grow_candidates(LINES_PER_PAGE * len(kinds))

    def core_counters(self, floor):
        """This core's result inputs, read from the live slots:
        ``(CoreStats, PrefetchStats, L2 demand misses, pollution logs)``
        with the stats measured from ``floor`` (see
        :func:`repro.cpu.core.measured_stats`)."""
        ci = self.ci64
        stats = measured_stats(
            int(ci[CI64["instr"]]),
            float(self.cf64[CF64["retire"]]),
            tuple(ci[HITS].tolist()),
            floor,
        )
        pf = PrefetchStats(**{field: int(ci[CI64["pf_" + field]]) for field in _PF_STATS})
        return stats, pf, int(ci[CI64["l2_demand_misses"]]), self.pollution_logs()

    # --------------------------------------------- compiled scheme training
    # A twin's config, counter and flat-list slots are one loop over its
    # family record (layout.FAMILIES); the family's _pack_<family> lays
    # out the tables whose object layout is not flat.

    def _pack_twin(self, family, pf):
        ci = self.ci64
        for slot, source in family.slots:
            if isinstance(source, str):
                ci[CI64[slot]] = getattr(pf, source)
            elif source is not None:
                ci[CI64[slot]] = source(pf)
        for slot, value in family.fconfig:
            self.cf64[CF64[slot]] = value(pf)
        for table in family.arrays:
            if table.attr:
                setattr(self, table.name, np.array(getattr(pf, table.attr), dtype=table.dtype))
        getattr(self, "_pack_" + family.name)(pf, ci)

    def _pack_spp(self, pf, ci):
        """The ST's entries, the PT's (delta, count) slots and the GHR."""
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

    def _pack_dspatch(self, pf, ci):
        """The page buffer in LRU order and the SPT's patterns and
        counters."""
        n_pb = pf.config.pb_entries
        self.dp_pb_page = _i64(n_pb)
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

    def _pack_bop(self, pf, ci):
        """The offsets with their scores, the ranked active offsets and
        the pending-fill ring."""
        cfg = pf.config
        offsets = cfg.offsets
        self.bp_offsets = np.array(offsets, dtype=np.int64)
        self.bp_scores = np.array([pf._scores[off] for off in offsets], dtype=np.int64)
        # A phase keeps at most max(degree, 4) offsets.
        active = pf.active_offsets
        cap = max(min(max(cfg.degree, 4), len(offsets)), len(active), 1)
        self.bp_active = _i64(cap)
        self.bp_active[: len(active)] = active
        ci[CI64["bp_active_len"]] = len(active)
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
        """The ``grow`` callback's work: grow whichever of BOP's
        pending-fill ring and the pollution logs lacks room for the next
        op, never truncating; the caller rebuilds the pointer table."""
        ci = self.ci64
        # one BOP training per below-L1 lookup (no ring packed: cap 0)
        cap = ci[CI64["bp_pend_cap"]]
        if cap and ci[CI64["bp_pend_len"]] + self._lookups_per_op() > cap:
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
        """The AT, FT and PHT as stamped tables; the stamps follow each
        table's dict order, AT first, then the FT, then the PHT set by
        set."""
        cfg = pf.config
        self.sm_at = _i64(SM_REC * cfg.at_entries)
        self.sm_ft = _i64(SM_REC * cfg.ft_entries)
        stamp = 0
        for arr, table in ((self.sm_at, pf._at), (self.sm_ft, pf._ft)):
            records = [
                (region, _s64(e.pattern), e.trigger_pc, e.trigger_offset)
                for region, e in table.items()
            ]
            stamp = _stamp(arr.reshape(-1, SM_REC), records, stamp)
        self.sm_pht = _i64(SM_PHT_REC * cfg.pht_sets * cfg.pht_ways)
        pht = self.sm_pht.reshape(cfg.pht_sets, cfg.pht_ways, SM_PHT_REC)
        # Only the sets holding patterns cost anything (a fresh SMS has
        # none).
        if any(pf._pht):
            for set_idx, pht_set in enumerate(pf._pht):
                if pht_set:
                    records = [(tag, _s64(pattern)) for tag, pattern in pht_set.items()]
                    stamp = _stamp(pht[set_idx], records, stamp)
        ci[CI64["sm_clock"]] = stamp

    def _pack_streamer(self, pf, ci):
        """The page table as a stamped table, stamped in dict (LRU) order."""
        self.st_tab = _i64(ST_REC * pf.tracked_pages)
        records = [
            (page, e.last_offset, e.direction, e.confidence) for page, e in pf._streams.items()
        ]
        ci[CI64["st_clock"]] = _stamp(self.st_tab.reshape(-1, ST_REC), records, 0)

    # ------------------------------------------------------------- plumbing

    def grow_candidates(self, n):
        """Reallocate the (empty) candidate buffers, doubling their
        capacity until ``n`` candidates fit; the caller rebuilds any
        pointer table that held the old ones."""
        ci = self.ci64
        cap = int(ci[CI64["cand_cap"]])
        while cap < n:
            cap *= 2
        self.cand_line = _i64(cap)
        self.cand_lp = _i64(cap)
        ci[CI64["cand_cap"]] = cap
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
            "cand_line": self.cand_line,
            "cand_lp": self.cand_lp,
            "pf_buf": self.pf_buf,
        }
        for nm in (*(table.name for table in TWIN_ARRAYS), *_LOGS):
            m[nm] = getattr(self, nm)
        for lvl in ("l1", "l2"):
            for f in _CACHE_FIELDS:
                m[f"{lvl}_{f}"] = getattr(self, f"{lvl}_{f}")
        for f in _CACHE_FIELDS:
            m[f"llc_{f}"] = shared.llc[f]
        assert set(m) == set(layout.PTR_NAMES)
        return m
