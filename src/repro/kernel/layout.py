"""Flat-state layout: the single source of truth for kernel slot indices.

The kernel subsystem keeps every piece of mutable hot-path state — core
timing scalars, cache stats/ticks, MSHR counters, prefetch accounting,
DRAM queue state, the bandwidth monitor — in four flat arrays:

- per-core ``int64`` slots (:data:`CI64`) and ``float64`` slots
  (:data:`CF64`);
- shared ``int64`` slots (:data:`SI64`) and ``float64`` slots
  (:data:`SF64`) — "shared" because in a multi-programmed run all cores
  point at one copy (the shared LLC, the shared DRAM model and its
  bandwidth monitor live here).

Bulk state (cache line arrays, MSHR heaps, the ROB checkpoint ring, the
stride table, DRAM bank arrays, the crossing buffers, the scheme tables,
the pollution logs) lives in separate named arrays, indexed by the
pointer-table constants (:data:`PTR`).

Three consumers read these dictionaries and therefore can never drift
apart:

- :mod:`repro.kernel.state` sizes and packs the arrays,
- :mod:`repro.kernel.cbuild` reads and resets slots at the crossings and
  warmup boundaries,
- :mod:`repro.kernel.cgen` emits them as ``#define`` lines into the
  generated C source, so the compiled twin shares the exact layout.
"""


def _index(names):
    return {name: idx for idx, name in enumerate(names)}


#: Compiled scheme-training twins.  A twinned L2 scheme is the tuple of
#: its components' kinds in arbitration order, a plain scheme a tuple of
#: one (slots ``scheme_len`` and ``scheme_0``...).  ``SCHEME_PY``, the
#: empty tuple, means "no C twin": training crosses back into Python.
SCHEME_PY = ()
SCHEME_SPP = 1
SCHEME_ESPP = 2
SCHEME_DSPATCH = 3
SCHEME_BOP = 4
SCHEME_EBOP = 5
SCHEME_SMS = 6
SCHEME_STREAMER = 7

#: Each twin kind's table family, named after the scheme whose flat
#: tables it trains (and whose ``KernelState`` pack and write-back serve
#: it).  Two kinds of one family would share those tables, so a twinned
#: scheme lists at most one kind per family.
SCHEME_FAMILY = {
    SCHEME_SPP: "spp",
    SCHEME_ESPP: "spp",
    SCHEME_DSPATCH: "dspatch",
    SCHEME_BOP: "bop",
    SCHEME_EBOP: "bop",
    SCHEME_SMS: "sms",
    SCHEME_STREAMER: "streamer",
}
#: The most components a twinned scheme lists: one per family.
MAX_TWINS = len(set(SCHEME_FAMILY.values()))


#: Per-core int64 slot names, grouped by subsystem.  Mutable state and
#: immutable per-run constants share the array — the constants simply
#: never change after packing, which keeps the pointer plumbing to four
#: scalar arrays total.
CI64_NAMES = (
    # -- core execution ------------------------------------------------------
    "pos",              # next op index
    "end",              # batch bound (exclusive op index)
    "n_ops",            # trace length
    "instr",            # instruction counter
    "win_head",         # ROB checkpoint ring: head index
    "win_len",          # ROB checkpoint ring: live entries
    "win_cap",          # ROB checkpoint ring: capacity (power of two)
    "hit_l1", "hit_l2", "hit_llc", "hit_dram",
    "width", "rob_size",
    "strict",           # run_ops_until tie rule for this batch
    "phase",            # crossing state machine (PH_*)
    # -- L1 ------------------------------------------------------------------
    "l1_ways", "l1_set_mask", "l1_hit_latency", "l1_victim_mode", "l1_tick",
    "l1_demand_hits", "l1_demand_misses", "l1_prefetch_probe_hits",
    "l1_useful_prefetches", "l1_late_useful_prefetches",
    "l1_useless_evictions", "l1_writebacks",
    # -- L2 ------------------------------------------------------------------
    "l2_ways", "l2_set_mask", "l2_hit_latency", "l2_victim_mode", "l2_tick",
    "l2_demand_hits", "l2_demand_misses", "l2_prefetch_probe_hits",
    "l2_useful_prefetches", "l2_late_useful_prefetches",
    "l2_useless_evictions", "l2_writebacks",
    # -- LLC geometry (stats/tick are shared; geometry is identical per core)
    "llc_ways", "llc_set_mask", "llc_hit_latency", "llc_victim_mode",
    # -- MSHRs ---------------------------------------------------------------
    "mshr_l1_cap", "mshr_l1_len", "mshr_l1_allocations", "mshr_l1_stall",
    "mshr_l2_cap", "mshr_l2_len", "mshr_l2_allocations", "mshr_l2_stall",
    "mshr_llc_cap", "mshr_llc_len", "mshr_llc_allocations", "mshr_llc_stall",
    # -- hierarchy -----------------------------------------------------------
    "demand_accesses", "queue_size", "merge_bound", "inflight_len",
    "pf_issued", "pf_issued_low_priority", "pf_filled_from_llc",
    "pf_filled_from_dram", "pf_useful", "pf_late", "pf_useless",
    "pf_dropped_resident", "pf_dropped_in_flight", "pf_dropped_bandwidth",
    # -- L1 stride prefetcher --------------------------------------------------
    "has_l1pf", "has_l2pf", "stride_degree", "stride_mask",
    "stride_conf_threshold", "stride_conf_max", "stride_trainings",
    # -- crossing machinery ----------------------------------------------------
    # the kinds of l2_pf's compiled twins, in arbitration order (none: it crosses)
    "scheme_len", *(f"scheme_{i}" for i in range(MAX_TWINS)),
    "l2pf_notes",       # 1 when l2_pf's (or a twin's) note hooks read notes
    "note_len", "note_cap",                         # queued usefulness notes
    "cand_len", "cand_cap",                         # scheme candidates (in)
    # saved per-op context across a crossing
    "ctx_cycle", "ctx_pc", "ctx_addr", "ctx_is_write", "ctx_idx",
    "ctx_line", "ctx_l1_slot", "ctx_pf_i", "ctx_pf_n",
    # saved below-L1 context (the half-finished lookup)
    "b_line", "b_slot", "b_first_use",
    # -- compiled scheme training (live only for a listed twin) --------------
    # SPP/eSPP: counters, then the SppConfig values (thresholds are CF64)
    "sp_trainings", "sp_filtered", "sp_fb_issued", "sp_fb_useful",
    "sp_ghr_len",
    "sp_st_mask", "sp_pt_mask", "sp_slots", "sp_cmax", "sp_ghr_cap",
    "sp_flt_mask", "sp_depth", "sp_maxc",
    # DSPatch: counters, then the DSPatchConfig values
    "dp_pb_len", "dp_pb_evictions", "dp_trainings", "dp_triggers",
    "dp_pred_covp", "dp_pred_accp", "dp_pred_supp",
    "dp_pb_cap", "dp_spt_mask", "dp_maxc", "dp_sig_bits", "dp_covp_reset",
    # BOP/eBOP: counters and learning state, then the BopConfig values
    "bp_trainings", "bp_phases", "bp_test_pos", "bp_round", "bp_active_len",
    "bp_pend_head", "bp_pend_len",
    "bp_pend_cap",      # pending-fill FIFO ring capacity, 0 when none is packed
    "bp_n_off", "bp_rr_mask", "bp_max_round", "bp_max_score", "bp_bad_score",
    "bp_degree", "bp_fill_delay",
    # SMS: counters, the age-stamp clock, then the SmsConfig geometry
    "sm_trainings", "sm_pht_stores", "sm_pht_hits", "sm_clock",
    "sm_region_shift", "sm_off_mask", "sm_at_cap", "sm_ft_cap",
    "sm_pht_sets", "sm_pht_ways", "sm_set_bits",
    # streamer: counter, the age-stamp clock, then the two config values
    "st_trainings", "st_clock", "st_tracked", "st_degree",
    # -- pollution recording (live only when pl_on) --------------------------
    "pl_on",
    "pl_dem_len", "pl_dem_cap",     # (ordinal, line) per below-L1 lookup
    "pl_fill_len", "pl_fill_cap",   # (ordinal, line) per DRAM prefetch fill
    "pl_vic_len", "pl_vic_cap",     # (ordinal, victim) per prefetch-fill eviction
)

#: Per-core float64 slot names.
CF64_NAMES = (
    "retire", "last_load_done", "horizon", "retire_step", "ctx_enter",
    "sp_thr_pf", "sp_thr_la", "sp_thr_relax",   # SppConfig's three thresholds
)

#: Shared int64 slots (one copy per LLC/DRAM domain).
SI64_NAMES = (
    "llc_tick",
    "llc_demand_hits", "llc_demand_misses", "llc_prefetch_probe_hits",
    "llc_useful_prefetches", "llc_late_useful_prefetches",
    "llc_useless_evictions", "llc_writebacks",
    # DRAM timing constants
    "tCL", "tRCD", "tRP", "tRC", "burst",
    "ch_mask", "ch_bits", "bank_mask", "bank_bits", "row_shift",
    "banks_per_channel",
    "pf_drop_backlog", "dem_preempt_bursts", "dem_preempt_acts",
    # DRAM statistics
    "dram_reads", "dram_writes", "dram_row_hits", "dram_row_misses",
    "dram_busy_cycles", "dram_prefetches_dropped",
    "dram_last_data_done", "dram_stats_start",
    # bandwidth monitor
    "mon_window_cycles", "mon_window_end", "mon_total_cas",
    "mon_bucket0", "mon_bucket1", "mon_bucket2", "mon_bucket3",
    "mon_last_sample",
)

#: Shared float64 slots.
SF64_NAMES = (
    "mon_counter", "mon_thr_lo", "mon_thr_mid", "mon_thr_hi",
)

CI64 = _index(CI64_NAMES)
CF64 = _index(CF64_NAMES)
SI64 = _index(SI64_NAMES)
SF64 = _index(SF64_NAMES)

#: Crossing state machine phases (slot ``phase``).
PH_TOP = 0          # between ops
PH_L1PF_TRAIN = 1   # waiting on l2_pf.train for an L1-stride prefetch issue
PH_DEMAND_TRAIN = 2  # waiting on l2_pf.train for the demand L1 miss

#: ``krun`` and ``ksched`` return codes.
RC_DONE = 0         # krun: batch finished (end / horizon); ksched: every core done
RC_TRAIN = 1        # scheme train requested; the ctx_/b_ slots hold its
                    # arguments
RC_YIELD = 2        # ksched: a core stopped between ops with notes queued or
                    # at its warmup checkpoint
RC_GROW = 3         # a core stopped between ops because BOP's pending-fill
                    # ring or a pollution log lacks room for the next op

#: Note-queue record kinds (triples of ``kind, cycle, line``).
NOTE_USEFUL = 0
NOTE_USELESS = 1

#: Hit-level codes, mirroring :mod:`repro.memory.hierarchy`.
LV_L1, LV_L2, LV_LLC, LV_DRAM = 0, 1, 2, 3

#: Pointer-table entries for the compiled kernel: every array the C side
#: touches, by name.  The Python side fills an ``int64`` table with the
#: arrays' base addresses in exactly this order.
PTR_NAMES = (
    "ci64", "cf64", "si64", "sf64",
    "op_gap", "op_pc", "op_addr", "op_write", "op_dep",
    "l1_valid", "l1_line", "l1_dirty", "l1_pref", "l1_used", "l1_touch", "l1_ready",
    "l2_valid", "l2_line", "l2_dirty", "l2_pref", "l2_used", "l2_touch", "l2_ready",
    "llc_valid", "llc_line", "llc_dirty", "llc_pref", "llc_used", "llc_touch", "llc_ready",
    "win_idx", "win_ret",
    "mshr_l1", "mshr_l2", "mshr_llc",
    "stride_valid", "stride_tag", "stride_last", "stride_stride", "stride_conf",
    "bank_open", "bank_nextact", "bank_rowready",
    "ch_busfree", "ch_demandfree",
    "infl_line", "infl_ready",
    "note_buf", "cand_line", "cand_lp", "pf_buf",
    # compiled scheme training state (1-element dummies unless a twin is listed)
    "sp_st_tag", "sp_st_loff", "sp_st_sig",
    "sp_pt_csig", "sp_pt_delta", "sp_pt_cdelta",
    "sp_ghr_sig", "sp_ghr_conf", "sp_ghr_loff", "sp_ghr_delta",
    "sp_flt",
    "dp_pb_page", "dp_pb_pattern", "dp_pb_trig_sig", "dp_pb_trig_off",
    "dp_spt_cov", "dp_spt_acc", "dp_spt_mcov", "dp_spt_or", "dp_spt_macc",
    "bp_rr", "bp_offsets", "bp_scores", "bp_active", "bp_pend",
    "sm_at", "sm_ft", "sm_pht",
    "st_tab",
    # pollution logs, (ordinal, line) pairs (1-element dummies when pl_on == 0)
    "pl_dem", "pl_fill", "pl_vic",
)
PTR = _index(PTR_NAMES)

#: Capacity of the stride-candidate scratch buffer (``pf_buf``): the page
#: bound caps a stride burst at LINES_PER_PAGE targets.
PF_BUF_CAP = 64

#: Initial capacity of the crossing buffers; grown on demand.
CAND_CAP0 = 256

#: SMS table records, int64 fields per entry.  AT/FT entries are
#: (region, pattern, trigger pc, trigger offset, stamp), PHT entries
#: (tag, pattern, stamp); stamp 0 marks a free entry, and ascending
#: stamps give each table's dict order.  Patterns hold the 64-bit
#: pattern's two's-complement bits.
SM_REC = 5
SM_PHT_REC = 3

#: Streamer page-table records, int64 fields per entry: (page, last
#: offset, direction, confidence, stamp); stamp 0 marks a free entry, and
#: ascending stamps give the table's dict (LRU) order.
ST_REC = 5
