"""Flat-state layout: the single source of truth for kernel slot indices.

The kernel subsystem keeps every piece of mutable hot-path state — core
timing scalars, cache ticks, the L2's miss count, prefetch accounting,
DRAM queue state, the bandwidth monitor — in four flat arrays:

- per-core ``int64`` slots (:data:`CI64`) and ``float64`` slots
  (:data:`CF64`);
- shared ``int64`` slots (:data:`SI64`) and ``float64`` slots
  (:data:`SF64`) — "shared" because in a multi-programmed run all cores
  point at one copy (the shared LLC, the shared DRAM model and its
  bandwidth monitor live here).

Bulk state (cache line arrays, MSHR heaps, the ROB checkpoint ring, the
stride table, DRAM bank arrays, the candidate buffers, the scheme
tables, the pollution logs) lives in separate named arrays, indexed by
the pointer-table constants (:data:`PTR`), which end with the Python
callbacks the C calls (:data:`CALLBACK_NAMES`).

Each compiled training twin is declared once, by the records
:data:`TWINS` (one per twinned class) and :data:`FAMILIES` (one per
table family), from which its slots and pointer-table entries derive.

Three consumers read these dictionaries and therefore can never drift
apart:

- :mod:`repro.kernel.state` sizes and packs the arrays (and gates and
  packs each twin by its records),
- :mod:`repro.kernel.execution` reads and resets slots in the callbacks
  and at warmup boundaries,
- :mod:`repro.kernel.cgen` emits them as ``#define`` lines into the
  generated C source, so the compiled twin shares the exact layout.
"""

from typing import Callable, NamedTuple

from repro.core.dspatch import SELECTIONS, DSPatch
from repro.core.spt import COUNTER_MAX
from repro.prefetchers.bop import BOP, EBOP
from repro.prefetchers.sms import SMS
from repro.prefetchers.spp import ESPP, SPP
from repro.prefetchers.streamer import StreamPrefetcher


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


class Table(NamedTuple):
    """A twin table: its pointer-table name, its dtype and, if it copies
    a list attribute of the scheme, that attribute."""

    name: str
    dtype: str = "int64"
    attr: str = None


class Family(NamedTuple):
    """The flat state one C file under ``kernel/c/`` trains (SPP and eSPP
    share a family, BOP and eBOP one).  Each int slot, in layout order,
    names where the pack reads it: the scheme attribute it mirrors (a
    ``str``), a function of the scheme, or ``None`` when the family's
    ``KernelState._pack_<name>`` sets it.  ``fconfig`` are float64 slots
    computed at pack; ``defines`` C constants its C and its packer
    share.  The translation is one way: nothing reads slots back into
    the scheme."""

    name: str
    c_file: str
    slots: tuple
    arrays: tuple
    fconfig: tuple = ()
    defines: tuple = ()


class Twin(NamedTuple):
    """A class with a compiled training twin (subclasses cross): its kind,
    its family, whether the C can hold an instance's config, and whether
    it reads the bandwidth monitor (which must be the packed one)."""

    cls: type
    kind: int
    family: Family
    fits: Callable
    bandwidth: bool = False


SPP_TABLES = Family(
    "spp", "spp.c",
    slots=(
        ("sp_ghr_len", None),
        ("sp_st_mask", lambda pf: pf.config.st_entries - 1),
        ("sp_pt_mask", lambda pf: pf.config.pt_entries - 1),
        ("sp_slots", lambda pf: pf.config.delta_slots),
        ("sp_cmax", lambda pf: pf.config.counter_max),
        ("sp_ghr_cap", lambda pf: pf.config.ghr_entries),
        ("sp_flt_mask", lambda pf: pf.config.filter_entries - 1),
        ("sp_depth", lambda pf: pf.config.max_lookahead_depth),
        ("sp_maxc", lambda pf: pf.config.max_candidates_per_train),
    ),
    fconfig=(
        ("sp_thr_pf", lambda pf: pf.config.prefetch_threshold),
        ("sp_thr_la", lambda pf: pf.config.lookahead_threshold),
        ("sp_thr_relax", lambda pf: pf.config.relaxed_threshold),
    ),
    arrays=(
        Table("sp_st_tag"), Table("sp_st_loff"), Table("sp_st_sig"),
        Table("sp_pt_csig", attr="_pt_c_sig"), Table("sp_pt_delta"), Table("sp_pt_cdelta"),
        Table("sp_ghr_sig"), Table("sp_ghr_conf", "float64"),
        Table("sp_ghr_loff"), Table("sp_ghr_delta"),
        Table("sp_flt", attr="_filter"),
    ),
)

DSPATCH_TABLES = Family(
    "dspatch", "dspatch.c",
    slots=(
        ("dp_pb_len", None),
        ("dp_pred_covp", "predictions_covp"), ("dp_pred_accp", "predictions_accp"),
        ("dp_pred_supp", "predictions_suppressed"),
        ("dp_pb_cap", lambda pf: pf.config.pb_entries),
        ("dp_spt_mask", lambda pf: pf.config.spt_entries - 1),
        ("dp_maxc", lambda pf: pf.config.max_candidates_per_trigger),
        ("dp_sig_bits", lambda pf: pf.config.pc_signature_bits),
        ("dp_covp_reset", lambda pf: 1 if pf.config.covp_reset else 0),
        ("dp_selection", lambda pf: SELECTIONS.index(pf.config.selection)),
        ("dp_anchored", lambda pf: 1 if pf.config.anchored else 0),
        ("dp_seg1_trigger", lambda pf: 1 if pf.config.segment1_trigger else 0),
    ),
    arrays=(
        # Patterns are 64-bit with bit 63 reachable (line offset 63), so
        # they live in uint64 — int64 would overflow on pack.
        Table("dp_pb_page"), Table("dp_pb_pattern", "uint64"),
        Table("dp_pb_trig_sig"), Table("dp_pb_trig_off"),
        Table("dp_spt_cov"), Table("dp_spt_acc"),
        Table("dp_spt_mcov"), Table("dp_spt_or"), Table("dp_spt_macc"),
    ),
    # The SPT's 2-bit counter ceiling: a constant of the spec, not a
    # config value; and the ablations' dp_selection values.
    defines=(
        ("DP_CMAX", COUNTER_MAX),
        ("DP_SEL_COVP", SELECTIONS.index("covp")),
        ("DP_SEL_MODCOVP", SELECTIONS.index("modcovp")),
    ),
)

BOP_TABLES = Family(
    "bop", "bop.c",
    slots=(
        ("bp_test_pos", "_test_pos"), ("bp_round", "_round"),
        ("bp_active_len", None), ("bp_pend_head", None), ("bp_pend_len", None),
        ("bp_pend_cap", None),      # pending-fill ring capacity, 0 when none is packed
        ("bp_n_off", lambda pf: len(pf.config.offsets)),
        ("bp_rr_mask", lambda pf: pf.config.rr_entries - 1),
        ("bp_max_round", lambda pf: pf.config.max_round),
        ("bp_max_score", lambda pf: pf.config.max_score),
        ("bp_bad_score", lambda pf: pf.config.bad_score),
        ("bp_degree", lambda pf: pf.config.degree),
        ("bp_fill_delay", lambda pf: pf.config.fill_delay_cycles),
    ),
    arrays=(
        Table("bp_rr", attr="_rr"), Table("bp_offsets"), Table("bp_scores"),
        Table("bp_active"), Table("bp_pend"),
    ),
)

#: SMS table records, int64 fields per entry.  AT/FT entries are
#: (region, pattern, trigger pc, trigger offset, stamp), PHT entries
#: (tag, pattern, stamp); stamp 0 marks a free entry, and ascending
#: stamps give each table's dict order.  Patterns hold the 64-bit
#: pattern's two's-complement bits.
SM_REC = 5
SM_PHT_REC = 3

SMS_TABLES = Family(
    "sms", "sms.c",
    slots=(
        ("sm_clock", None),
        ("sm_region_shift", lambda pf: pf._region_shift),
        ("sm_off_mask", lambda pf: pf._offset_mask),
        ("sm_at_cap", lambda pf: pf.config.at_entries),
        ("sm_ft_cap", lambda pf: pf.config.ft_entries),
        ("sm_pht_sets", lambda pf: pf.config.pht_sets),
        ("sm_pht_ways", lambda pf: pf.config.pht_ways),
        ("sm_set_bits", lambda pf: (pf.config.pht_sets - 1).bit_length()),
    ),
    arrays=(Table("sm_at"), Table("sm_ft"), Table("sm_pht")),
    defines=(("SM_REC", SM_REC), ("SM_PHT_REC", SM_PHT_REC)),
)

#: Streamer page-table records, int64 fields per entry: (page, last
#: offset, direction, confidence, stamp); stamp 0 marks a free entry, and
#: ascending stamps give the table's dict (LRU) order.
ST_REC = 5

STREAMER_TABLES = Family(
    "streamer", "streamer.c",
    slots=(
        ("st_clock", None),
        ("st_tracked", lambda pf: pf.tracked_pages), ("st_degree", lambda pf: pf.degree),
    ),
    arrays=(Table("st_tab"),),
    defines=(("ST_REC", ST_REC),),
)

#: Every table family, in the order the kernel's C joins their files
#: (the streamer's C uses SMS's stamped-table search).
FAMILIES = (SPP_TABLES, DSPATCH_TABLES, BOP_TABLES, SMS_TABLES, STREAMER_TABLES)


def _spp_fits(pf):
    # The spec rejects empty tables but runs without a GHR; the C needs one.
    return pf.config.ghr_entries >= 1


def _bop_fits(pf):
    offsets = pf.config.offsets
    return offsets and len(set(offsets)) == len(offsets)


TWINS = (
    Twin(SPP, SCHEME_SPP, SPP_TABLES, _spp_fits),
    Twin(ESPP, SCHEME_ESPP, SPP_TABLES, _spp_fits, bandwidth=True),
    Twin(DSPatch, SCHEME_DSPATCH, DSPATCH_TABLES,
         lambda pf: pf.config.compressed and pf.config.pc_signature_bits <= 63, bandwidth=True),
    Twin(BOP, SCHEME_BOP, BOP_TABLES, _bop_fits),
    Twin(EBOP, SCHEME_EBOP, BOP_TABLES, _bop_fits, bandwidth=True),
    Twin(SMS, SCHEME_SMS, SMS_TABLES, lambda pf: pf.config.lines_per_region <= 64),
    Twin(StreamPrefetcher, SCHEME_STREAMER, STREAMER_TABLES,
         lambda pf: 1 <= pf.tracked_pages and len(pf._streams) <= pf.tracked_pages),
)

#: Each twin kind's table family.  Two kinds of one family would share
#: its tables, so a twinned scheme lists at most one kind per family.
SCHEME_FAMILY = {twin.kind: twin.family for twin in TWINS}
#: The most components a twinned scheme lists: one per family.
MAX_TWINS = len(FAMILIES)
#: Every twin table, family by family.
TWIN_ARRAYS = tuple(table for family in FAMILIES for table in family.arrays)


#: Per-core int64 slot names, grouped by subsystem.  Mutable state and
#: immutable per-run constants share the array — the constants simply
#: never change after packing, which keeps the pointer plumbing to four
#: scalar arrays total.
CI64_NAMES = (
    # -- core execution ------------------------------------------------------
    "pos",              # next op index
    "n_ops",            # trace length
    "instr",            # instruction counter
    "win_head",         # ROB checkpoint ring: head index
    "win_len",          # ROB checkpoint ring: live entries
    "win_cap",          # ROB checkpoint ring: capacity (power of two)
    "hit_l1", "hit_l2", "hit_llc", "hit_dram",
    "width", "rob_size",
    # -- L1 ------------------------------------------------------------------
    "l1_ways", "l1_set_mask", "l1_hit_latency", "l1_victim_mode", "l1_tick",
    # -- L2 ------------------------------------------------------------------
    "l2_ways", "l2_set_mask", "l2_hit_latency", "l2_victim_mode", "l2_tick",
    "l2_demand_misses",  # a run's l2_demand_misses
    # -- LLC geometry (its tick is shared; geometry is identical per core)
    "llc_ways", "llc_set_mask", "llc_hit_latency", "llc_victim_mode",
    # -- MSHRs ---------------------------------------------------------------
    "mshr_l1_cap", "mshr_l1_len",
    "mshr_l2_cap", "mshr_l2_len",
    "mshr_llc_cap", "mshr_llc_len",
    # -- hierarchy -----------------------------------------------------------
    "demand_accesses", "queue_size", "merge_bound", "inflight_len",
    "pf_issued", "pf_useful", "pf_late", "pf_useless",
    # -- L1 stride prefetcher --------------------------------------------------
    "has_l1pf", "has_l2pf", "stride_degree", "stride_mask",
    "stride_conf_threshold", "stride_conf_max",
    # -- L2 scheme -------------------------------------------------------------
    # the kinds of l2_pf's compiled twins, in arbitration order (none: it crosses)
    "scheme_len", *(f"scheme_{i}" for i in range(MAX_TWINS)),
    "l2pf_notes",       # 1 when a crossing l2_pf's note hooks read notes
    "cand_len", "cand_cap",                         # the lookup's candidates
    # -- compiled scheme training (live only for a listed twin) --------------
    *(slot for family in FAMILIES for slot, _ in family.slots),
    # -- pollution recording (live only when pl_on) --------------------------
    "pl_on",
    "pl_dem_len", "pl_dem_cap",     # (ordinal, line) per below-L1 lookup
    "pl_fill_len", "pl_fill_cap",   # (ordinal, line) per DRAM prefetch fill
    "pl_vic_len", "pl_vic_cap",     # (ordinal, victim) per prefetch-fill eviction
)

#: Per-core float64 slot names.
CF64_NAMES = (
    "retire", "last_load_done", "retire_step",
    # compiled scheme training: the families' float config values
    *(slot for family in FAMILIES for slot, _ in family.fconfig),
)

#: Shared int64 slots (one copy per LLC/DRAM domain).
SI64_NAMES = (
    "failed",           # 1 once a Python callback raised: the run stops
    "llc_tick",
    # DRAM timing constants
    "tCL", "tRCD", "tRP", "tRC", "burst",
    "ch_mask", "ch_bits", "bank_mask", "bank_bits", "row_shift",
    "banks_per_channel",
    "pf_drop_backlog", "dem_preempt_bursts", "dem_preempt_acts",
    # DRAM statistics
    "dram_reads", "dram_writes", "dram_last_data_done", "dram_stats_start",
    # bandwidth monitor
    "mon_window_cycles", "mon_window_end",
    "mon_bucket0", "mon_bucket1", "mon_bucket2", "mon_bucket3",
)

#: Shared float64 slots.
SF64_NAMES = (
    "mon_counter", "mon_thr_lo", "mon_thr_mid", "mon_thr_hi",
)

CI64 = _index(CI64_NAMES)
CF64 = _index(CF64_NAMES)
SI64 = _index(SI64_NAMES)
SF64 = _index(SF64_NAMES)
#: The per-level hit counters, ``CoreExecution._hits`` in order (the C
#: counts into ``ci[CI_hit_l1 + level]``).
HITS = slice(CI64["hit_l1"], CI64["hit_dram"] + 1)

#: ``ksched`` return codes.
RC_DONE = 0         # every core is done
RC_ERROR = 1        # a Python callback raised (slot ``failed``)

#: Pointer-table entries for the compiled kernel: every array the C side
#: touches, by name.  The Python side fills an ``int64`` table with the
#: arrays' base addresses in exactly this order.
PTR_NAMES = (
    "ci64", "cf64", "si64", "sf64",
    "op_gap", "op_pc", "op_addr", "op_write", "op_dep",
    "l1_valid", "l1_line", "l1_pref", "l1_used", "l1_touch", "l1_ready",
    "l2_valid", "l2_line", "l2_pref", "l2_used", "l2_touch", "l2_ready",
    "llc_valid", "llc_line", "llc_pref", "llc_used", "llc_touch", "llc_ready",
    "win_idx", "win_ret",
    "mshr_l1", "mshr_l2", "mshr_llc",
    "stride_valid", "stride_tag", "stride_last", "stride_stride", "stride_conf",
    "bank_open", "bank_nextact", "bank_rowready",
    "ch_busfree", "ch_demandfree",
    "infl_line", "infl_ready",
    "cand_line", "cand_lp", "pf_buf",
    # compiled scheme training state (1-element dummies unless a twin is listed)
    *(table.name for table in TWIN_ARRAYS),
    # pollution logs, (ordinal, line) pairs (1-element dummies when pl_on == 0)
    "pl_dem", "pl_fill", "pl_vic",
)
#: The Python callbacks ``krun`` calls, after the arrays in the pointer
#: table: a crossing scheme's ``train`` and note hooks, and the growth of
#: BOP's pending-fill ring or a pollution log.
CALLBACK_NAMES = ("train", "note", "grow")
PTR = _index(PTR_NAMES + CALLBACK_NAMES)

#: Capacity of the stride-candidate scratch buffer (``pf_buf``): the page
#: bound caps a stride burst at LINES_PER_PAGE targets.
PF_BUF_CAP = 64

#: Initial capacity of the candidate buffers; grown on demand.
CAND_CAP0 = 256
