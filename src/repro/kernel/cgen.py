"""C source generation for the compiled kernel twin.

The emitted translation unit is a transliteration of the object model —
the per-access path of :class:`repro.memory.hierarchy.MemoryHierarchy`
(with its caches, MSHRs, DRAM model and bandwidth monitor), the core
timing loop of :meth:`repro.cpu.core.CoreExecution.run_ops_until` and
the multi-core scheduler :func:`repro.cpu.core.interleave_two_level`,
the executable specs — against flat arrays laid out by
:mod:`repro.kernel.layout`.  The slot dictionaries are emitted as
``#define`` lines, so the C and the packing code can never disagree
about where a counter lives.

Exported symbols:

- ``long ksched(void ***tables, long n_cores, long long *stop, long long
  *who)`` — the twin of :func:`repro.cpu.core.interleave_two_level`:
  picks the minimum-``(retire, core)`` core, sets its batch bounds and
  runs the op body ``krun`` on it (one core's batch, over its pointer
  table), over and over.  It returns only when every core is done
  (``RC_DONE``), when core ``*who`` needs a Python training crossing
  (``RC_TRAIN``: ``krun`` appended the records to ``train_buf`` and
  saved its mid-op context; the Python driver drains them into the
  scheme, writes the candidates and re-enters, which resumes the op),
  or when that core stopped with usefulness notes queued or at its
  warmup checkpoint (``RC_YIELD``), or between ops because BOP's
  pending-fill ring or a pollution log needs room for the next op
  (``RC_GROW``).  Schemes with a compiled twin (``scheme_kind`` > 0:
  SPP, eSPP and DSPatch at their default configs, the SPP+DSPatch
  composite, and BOP, eBOP, SMS and the streamer at any config the gate
  admits) never cross — their training loops run in C against flat
  tables and fill the candidate buffers directly.  The SPP and DSPatch
  twins take their config constants as ``#define``s; the BOP, SMS and
  streamer twins read every size and threshold from flat-state slots
  and packed arrays, so one twin per class serves
  ``bop``/``bop1``/``ebop``, every ``sms-*`` PHT size and any
  ``StreamPrefetcher(tracked_pages, degree)``.  With the ``pl_on`` slot
  set, ``krun`` also records the three pollution logs of
  :class:`repro.observe.sinks.PollutionCollector` (the spec) into
  per-core ``(ordinal, line)`` arrays.
- ``long kbucket(long long *si, double *sf, long long cycle)`` — the
  bandwidth monitor's live 2-bit signal (advances the monitor exactly
  like ``BandwidthMonitor.bucket``).

Floating-point parity with CPython requires that every double operation
happen in the same order with no contraction — build with
``-ffp-contract=off`` (see :mod:`repro.kernel.cbuild`).
"""

from repro.constants import LINE_SHIFT, PAGE_SHIFT
from repro.kernel import layout
from repro.kernel.layout import CF64, CI64, PTR, SF64, SI64


def _defines():
    lines = []
    for prefix, table in (("CI_", CI64), ("CF_", CF64), ("SI_", SI64), ("SF_", SF64), ("P_", PTR)):
        for name, idx in table.items():
            lines.append(f"#define {prefix}{name} {idx}")
    lines.append(f"#define LINE_SHIFT {LINE_SHIFT}")
    lines.append(f"#define PG_SHIFT {PAGE_SHIFT - LINE_SHIFT}")
    lines.append(f"#define PH_TOP {layout.PH_TOP}")
    lines.append(f"#define PH_L1PF_TRAIN {layout.PH_L1PF_TRAIN}")
    lines.append(f"#define PH_DEMAND_TRAIN {layout.PH_DEMAND_TRAIN}")
    lines.append(f"#define RC_DONE {layout.RC_DONE}")
    lines.append(f"#define RC_TRAIN {layout.RC_TRAIN}")
    lines.append(f"#define RC_YIELD {layout.RC_YIELD}")
    lines.append(f"#define RC_GROW {layout.RC_GROW}")
    lines.append(f"#define NOTE_USEFUL {layout.NOTE_USEFUL}")
    lines.append(f"#define NOTE_USELESS {layout.NOTE_USELESS}")
    lines.append(f"#define TB_CAP {layout.TB_CAP}")
    lines.append(f"#define SM_REC {layout.SM_REC}")
    lines.append(f"#define SM_PHT_REC {layout.SM_PHT_REC}")
    lines.append(f"#define ST_REC {layout.ST_REC}")
    return "\n".join(lines)


def _scheme_defines():
    """Scheme-kind ids and the SPP/DSPatch twins' constants.

    The SPP and DSPatch twins run only at their stock configs
    (:func:`repro.kernel.state._scheme_kind` gates on config equality),
    so their constants are baked in as ``#define``s sourced from the
    live dataclass defaults — the C can never drift from the spec without
    the emitted source (and hence the build digest) changing too.  The
    BOP, SMS and streamer twins read their configs from slots and have
    none here.
    """
    from repro.core.dspatch import DSPatchConfig
    from repro.core.spt import COUNTER_MAX
    from repro.prefetchers.spp import SppConfig

    sp = SppConfig()
    dp = DSPatchConfig()
    assert dp.compressed and dp.covp_reset, "C twin hardcodes the stock geometry"
    lines = [
        f"#define SCHEME_SPP {layout.SCHEME_SPP}",
        f"#define SCHEME_ESPP {layout.SCHEME_ESPP}",
        f"#define SCHEME_DSPATCH {layout.SCHEME_DSPATCH}",
        f"#define SCHEME_SPP_DSPATCH {layout.SCHEME_SPP_DSPATCH}",
        f"#define SCHEME_BOP {layout.SCHEME_BOP}",
        f"#define SCHEME_EBOP {layout.SCHEME_EBOP}",
        f"#define SCHEME_SMS {layout.SCHEME_SMS}",
        f"#define SCHEME_STREAMER {layout.SCHEME_STREAMER}",
        f"#define SPP_ST_MASK {sp.st_entries - 1}",
        f"#define SPP_PT_MASK {sp.pt_entries - 1}",
        f"#define SPP_SLOTS {sp.delta_slots}",
        f"#define SPP_CMAX {sp.counter_max}",
        f"#define SPP_GHR {sp.ghr_entries}",
        f"#define SPP_FLT_MASK {sp.filter_entries - 1}",
        f"#define SPP_DEPTH {sp.max_lookahead_depth}",
        f"#define SPP_MAXC {sp.max_candidates_per_train}",
        f"#define SPP_THR_PF {sp.prefetch_threshold!r}",
        f"#define SPP_THR_LA {sp.lookahead_threshold!r}",
        f"#define SPP_THR_RELAX {sp.relaxed_threshold!r}",
        f"#define DP_SPT_MASK {dp.spt_entries - 1}",
        f"#define DP_PB {dp.pb_entries}",
        f"#define DP_CMAX {COUNTER_MAX}",
        f"#define DP_MAXC {dp.max_candidates_per_trigger}",
    ]
    return "\n".join(lines)


_BODY = r"""
#include <float.h>
#include <stdint.h>

#define CI(n) ci[CI_##n]
#define CF(n) cf[CF_##n]
#define SIG(n) si[SI_##n]
#define SFG(n) sf[SF_##n]

/* One cache level: pointers into the flat slot arrays plus geometry.
   stats[0..6] = demand_hits, demand_misses, prefetch_probe_hits,
   useful, late_useful, useless_evictions, writebacks (layout order). */
typedef struct {
    int64_t *valid, *line, *dirty, *pref, *used, *touch, *ready;
    int64_t *tick, *stats;
    int64_t ways, set_mask, hit_lat, mode;
} cache_t;

typedef struct {
    int64_t *heap, *len, *allocs, *stall;
    int64_t cap;
} mshr_t;

typedef struct {
    int64_t *ci; double *cf;
    int64_t *si; double *sf;
    cache_t l1, l2, llc;
    mshr_t l1m, l2m, llcm;
    int64_t *bank_open, *bank_nextact, *bank_rowready;
    int64_t *ch_busfree, *ch_demandfree;
    int64_t *infl_line, *infl_ready;
    int64_t *note_buf, *cand_line, *cand_lp, *train_buf;
    /* compiled scheme-training state (dummies when scheme_kind == 0) */
    int64_t *sp_st_tag, *sp_st_loff, *sp_st_sig;
    int64_t *sp_pt_csig, *sp_pt_delta, *sp_pt_cdelta;
    int64_t *sp_ghr_sig, *sp_ghr_loff, *sp_ghr_delta;
    double *sp_ghr_conf;
    int64_t *sp_flt;
    int64_t *dp_pb_page, *dp_pb_trig_sig, *dp_pb_trig_off;
    uint64_t *dp_pb_pattern;
    int64_t *dp_spt_cov, *dp_spt_acc, *dp_spt_mcov, *dp_spt_or, *dp_spt_macc;
    int64_t *bp_rr, *bp_offsets, *bp_scores, *bp_active, *bp_pend;
    int64_t *sm_at, *sm_ft, *sm_pht;
    int64_t *st_tab;
    /* pollution logs, (ordinal, line) pairs (dummies when pl_on == 0) */
    int64_t *pl_dem, *pl_fill, *pl_vic;
} kctx_t;

/* ---------------------------------------------------------------- cache */

static int64_t c_find(const cache_t *c, int64_t line) {
    int64_t base = (line & c->set_mask) * c->ways;
    int64_t end = base + c->ways;
    for (int64_t s = base; s < end; s++)
        if (c->valid[s] && c->line[s] == line) return s;
    return -1;
}

/* Cache.fill: resident refresh, else victim select (mode 0 = LRU argmin
   touch, mode 1 = min-touch never-demanded prefetch else argmin) +
   install.  Returns 1 and fills out_v* when a victim was evicted and the
   caller asked for it (out_vline != 0). */
static int c_fill(cache_t *c, int64_t line, int64_t prefetched,
                  int64_t low_priority, int64_t ready,
                  int64_t *out_vline, int64_t *out_vpref, int64_t *out_vused) {
    int64_t tick = ++(*c->tick);
    int64_t base = (line & c->set_mask) * c->ways;
    int64_t end = base + c->ways;
    int64_t slot = -1, free_slot = -1;
    for (int64_t s = base; s < end; s++) {
        if (!c->valid[s]) { if (free_slot < 0) free_slot = s; }
        else if (c->line[s] == line) { slot = s; break; }
    }
    if (slot >= 0) { c->touch[slot] = tick; return 0; }
    int have_info = 0;
    if (free_slot >= 0) {
        slot = free_slot;
        c->valid[slot] = 1;
    } else {
        int64_t vslot = -1, vtouch = 0;
        if (c->mode == 1) {
            for (int64_t s = base; s < end; s++)
                if (c->pref[s] && !c->used[s]) {
                    int64_t t = c->touch[s];
                    if (vslot < 0 || t < vtouch) { vslot = s; vtouch = t; }
                }
        }
        if (vslot < 0) {
            vslot = base; vtouch = c->touch[base];
            for (int64_t s = base + 1; s < end; s++) {
                int64_t t = c->touch[s];
                if (t < vtouch) { vslot = s; vtouch = t; }
            }
        }
        if (c->pref[vslot] && !c->used[vslot]) c->stats[5]++;
        if (c->dirty[vslot]) c->stats[6]++;
        if (out_vline) {
            *out_vline = c->line[vslot];
            *out_vpref = c->pref[vslot];
            *out_vused = c->used[vslot];
            have_info = 1;
        }
        slot = vslot;
    }
    c->line[slot] = line;
    c->dirty[slot] = 0;
    c->pref[slot] = prefetched;
    c->used[slot] = !prefetched;
    c->touch[slot] = low_priority ? -tick : tick;
    c->ready[slot] = ready;
    return have_info;
}

static void c_touch_pf(cache_t *c, int64_t line) {
    int64_t s = c_find(c, line);
    if (s >= 0 && c->pref[s] && !c->used[s]) c->used[s] = 1;
}

/* ----------------------------------------------------------------- MSHR */

static void heap_pop(int64_t *h, int64_t *len) {
    int64_t n = --(*len);
    int64_t v = h[n];
    int64_t i = 0;
    for (;;) {
        int64_t l = 2 * i + 1, m = i;
        if (l < n && h[l] < v) m = l;
        if (l + 1 < n && h[l + 1] < (m == i ? v : h[l])) m = l + 1;
        if (m == i) break;
        h[i] = h[m];
        i = m;
    }
    h[i] = v;
}

static void heap_push(int64_t *h, int64_t *len, int64_t v) {
    int64_t i = (*len)++;
    while (i > 0) {
        int64_t p = (i - 1) >> 1;
        if (h[p] <= v) break;
        h[i] = h[p];
        i = p;
    }
    h[i] = v;
}

static void mshr_drain(mshr_t *m, int64_t cycle) {
    while (*m->len && m->heap[0] <= cycle) heap_pop(m->heap, m->len);
}

/* MshrFile.allocate */
static int64_t mshr_allocate(mshr_t *m, int64_t cycle, int64_t completion) {
    mshr_drain(m, cycle);
    int64_t wait = 0;
    if (*m->len >= m->cap) {
        int64_t earliest = m->heap[0];
        wait = earliest - cycle;
        if (wait < 0) wait = 0;
        int64_t until = cycle + wait;
        while (*m->len && m->heap[0] <= until) heap_pop(m->heap, m->len);
        if (*m->len >= m->cap) heap_pop(m->heap, m->len);
        *m->stall += wait;
    }
    heap_push(m->heap, m->len, completion + wait);
    (*m->allocs)++;
    return wait;
}

/* ---------------------------------------------------- bandwidth monitor */

static double mon_rate(const int64_t *si, const double *sf, int64_t cycle) {
    int64_t window = SIG(mon_window_cycles);
    int64_t elapsed = cycle - (SIG(mon_window_end) - window);
    if (elapsed < 0) elapsed = 0;
    if (elapsed > window) elapsed = window;
    double t = (double)elapsed / (double)window;
    return SFG(mon_counter) / (1.0 + t);
}

static int64_t mon_instant(const int64_t *si, const double *sf, int64_t cycle) {
    double rate = mon_rate(si, sf, cycle);
    if (rate >= SFG(mon_thr_hi)) return 3;
    if (rate >= SFG(mon_thr_mid)) return 2;
    if (rate >= SFG(mon_thr_lo)) return 1;
    return 0;
}

static void mon_advance(int64_t *si, double *sf, int64_t cycle) {
    if (cycle < SIG(mon_window_end)) return;
    int64_t b = mon_instant(si, sf, SIG(mon_last_sample));
    si[SI_mon_bucket0 + b] += cycle - SIG(mon_last_sample);
    SIG(mon_last_sample) = cycle;
    int64_t window = SIG(mon_window_cycles);
    while (cycle >= SIG(mon_window_end)) {
        SFG(mon_counter) /= 2.0;
        SIG(mon_window_end) += window;
    }
}

/* ------------------------------------------------------------------ DRAM */

/* DramModel.access; returns latency, or -1 for a dropped prefetch. */
static int64_t dram_access(kctx_t *k, int64_t cycle, int64_t line_addr,
                           int is_write, int is_prefetch) {
    int64_t *si = k->si;
    double *sf = k->sf;
    int64_t burst = SIG(burst);
    int64_t ch = line_addr & SIG(ch_mask);
    int64_t rest = line_addr >> SIG(ch_bits);
    int64_t bank = ch * SIG(banks_per_channel)
                 + ((rest >> SIG(row_shift)) & SIG(bank_mask));
    int64_t row = rest >> (SIG(row_shift) + SIG(bank_bits));
    int64_t bus_free = k->ch_busfree[ch];
    if (is_prefetch && bus_free - cycle > SIG(pf_drop_backlog)) {
        SIG(dram_prefetches_dropped)++;
        return -1;
    }
    int64_t bus_ready;
    if (k->bank_open[bank] == row) {
        SIG(dram_row_hits)++;
        int64_t row_wait = k->bank_rowready[bank];
        if (!is_prefetch) {
            int64_t bound = cycle + SIG(dem_preempt_acts);
            if (row_wait > bound) row_wait = bound;
        }
        int64_t cas_start = cycle > row_wait ? cycle : row_wait;
        bus_ready = cas_start + SIG(tCL);
    } else {
        SIG(dram_row_misses)++;
        int64_t next_act = k->bank_nextact[bank];
        int64_t act_start;
        if (is_prefetch) {
            act_start = cycle > next_act ? cycle : next_act;
            k->bank_nextact[bank] = act_start + SIG(tRC);
        } else {
            int64_t pb = cycle + SIG(dem_preempt_acts);
            act_start = next_act < pb ? next_act : pb;
            if (act_start < cycle) act_start = cycle;
            k->bank_nextact[bank] =
                (next_act > act_start ? next_act : act_start) + SIG(tRC);
        }
        k->bank_open[bank] = row;
        int64_t row_ready = act_start + SIG(tRP) + SIG(tRCD);
        k->bank_rowready[bank] = row_ready;
        bus_ready = row_ready + SIG(tCL);
    }
    int64_t data_start, data_done;
    if (is_prefetch) {
        int64_t slot = bus_free > cycle ? bus_free : cycle;
        k->ch_busfree[ch] = slot + burst;
        data_start = bus_ready > slot ? bus_ready : slot;
        data_done = data_start + burst;
    } else {
        int64_t head_wait = bus_free - bus_ready;
        if (head_wait < 0) head_wait = 0;
        else if (head_wait > SIG(dem_preempt_bursts)) head_wait = SIG(dem_preempt_bursts);
        data_start = bus_ready + head_wait;
        int64_t demand_free = k->ch_demandfree[ch];
        if (demand_free > data_start) data_start = demand_free;
        data_done = data_start + burst;
        k->ch_demandfree[ch] = data_done;
        k->ch_busfree[ch] = (bus_free > cycle ? bus_free : cycle) + burst;
    }
    SIG(dram_busy_cycles) += burst;
    if (data_done > SIG(dram_last_data_done)) SIG(dram_last_data_done) = data_done;
    /* BandwidthMonitor.record_cas */
    if (data_start >= SIG(mon_window_end)) mon_advance(si, sf, data_start);
    SFG(mon_counter) += 1.0;
    SIG(mon_total_cas)++;
    if (is_write) SIG(dram_writes)++; else SIG(dram_reads)++;
    return data_done - cycle;
}

/* ----------------------------------------------- in-flight prefetch queue */

static int64_t infl_find(const kctx_t *k, int64_t line) {
    int64_t n = k->ci[CI_inflight_len];
    for (int64_t i = 0; i < n; i++)
        if (k->infl_line[i] == line) return i;
    return -1;
}

static void infl_del(kctx_t *k, int64_t i) {
    int64_t n = --k->ci[CI_inflight_len];
    k->infl_line[i] = k->infl_line[n];
    k->infl_ready[i] = k->infl_ready[n];
}

static void infl_sweep(kctx_t *k, int64_t cycle) {
    int64_t n = k->ci[CI_inflight_len];
    int64_t i = 0;
    while (i < n) {
        if (k->infl_ready[i] <= cycle) {
            n--;
            k->infl_line[i] = k->infl_line[n];
            k->infl_ready[i] = k->infl_ready[n];
        } else i++;
    }
    k->ci[CI_inflight_len] = n;
}

/* ------------------------------------------------- scheme note queue */

static void note_push(kctx_t *k, int64_t kind, int64_t cycle, int64_t line) {
    /* l2pf_notes is 0 when no scheme is attached or its note hooks are
       Prefetcher's inherited no-ops (DSPatch, BOP, SMS, ampm, ...):
       nothing would read the note. */
    if (!k->ci[CI_l2pf_notes]) return;
    if (k->ci[CI_scheme_kind]) {
        /* Of the compiled twins only the SPP family reads notes.  SPP's
           note hooks are pure feedback-counter increments (never read by
           train), so immediate counting matches the deferred queue drain
           exactly. */
        if (kind == NOTE_USEFUL) k->ci[CI_sp_fb_useful]++;
        else k->ci[CI_sp_fb_issued]++;
        return;
    }
    int64_t n = k->ci[CI_note_len];
    int64_t *b = k->note_buf + 3 * n;
    b[0] = kind; b[1] = cycle; b[2] = line;
    k->ci[CI_note_len] = n + 1;
}

static void notify_useful(kctx_t *k, int64_t cycle, int64_t line) {
    c_touch_pf(&k->llc, line);
    c_touch_pf(&k->l2, line);
    note_push(k, NOTE_USEFUL, cycle, line);
}

static void note_use(kctx_t *k, int64_t cycle, int64_t line, int64_t ready) {
    k->ci[CI_pf_useful]++;
    if (ready > cycle) k->ci[CI_pf_late]++;
    notify_useful(k, cycle, line);
}

/* ------------------------------------------------------ pollution logs
   PollutionCollector's three views (observe/sinks.py), recorded where
   ObservedHierarchy emits the events it derives them from.  krun stops
   between ops (RC_GROW) until every log has room for a whole op, so an
   append never overflows. */

static void pl_push(int64_t *ci, int64_t *log, int64_t len_slot, int64_t line) {
    int64_t n = ci[len_slot]++;
    log[2 * n] = ci[CI_demand_accesses];
    log[2 * n + 1] = line;
}

static void fill_llc_acct(kctx_t *k, int64_t line, int64_t prefetched,
                          int64_t ready, int64_t lp, int64_t cycle) {
    int64_t vline, vpref, vused;
    if (c_fill(&k->llc, line, prefetched, lp, ready, &vline, &vpref, &vused)) {
        if (vpref && !vused) {
            k->ci[CI_pf_useless]++;
            note_push(k, NOTE_USELESS, cycle, vline);
        }
        /* POLLUTING: an LLC victim of a prefetch fill */
        if (prefetched && k->ci[CI_pl_on]) pl_push(k->ci, k->pl_vic, CI_pl_vic_len, vline);
    }
}

/* --------------------------------- compiled scheme-training twins
   Line-for-line transliterations of prefetchers/spp.py and
   core/dspatch.py (the executable specs) against the flat sp_ and dp_
   arrays.  Bandwidth-bucket reads happen at exactly the same points as
   the Python (the monitor mutates on every read), and every double op
   keeps CPython's evaluation order. */

static int64_t k_bucket(kctx_t *k, int64_t cycle) {
    /* BandwidthMonitor.bucket: advance, then the 2-bit instant value. */
    mon_advance(k->si, k->sf, cycle);
    return mon_instant(k->si, k->sf, cycle);
}

/* --- SPP / eSPP --- */

static int64_t spp_advance_sig(int64_t sig, int64_t delta) {
    int64_t mag = (delta >= 0 ? delta : -delta) & 0x3F;
    if (delta < 0) mag |= 0x40;
    return ((sig << 3) ^ mag) & 0xFFF;
}

static void spp_ghr_insert(kctx_t *k, int64_t sig, double conf,
                           int64_t loff, int64_t delta) {
    int64_t len = k->ci[CI_sp_ghr_len];
    if (len < SPP_GHR) len++;
    for (int64_t i = len - 1; i > 0; i--) {
        k->sp_ghr_sig[i] = k->sp_ghr_sig[i - 1];
        k->sp_ghr_conf[i] = k->sp_ghr_conf[i - 1];
        k->sp_ghr_loff[i] = k->sp_ghr_loff[i - 1];
        k->sp_ghr_delta[i] = k->sp_ghr_delta[i - 1];
    }
    k->sp_ghr_sig[0] = sig;
    k->sp_ghr_conf[0] = conf;
    k->sp_ghr_loff[0] = loff;
    k->sp_ghr_delta[0] = delta;
    k->ci[CI_sp_ghr_len] = len;
}

static int64_t spp_ghr_bootstrap(kctx_t *k, int64_t offset) {
    int64_t n = k->ci[CI_sp_ghr_len];
    for (int64_t i = 0; i < n; i++) {
        int64_t landing = k->sp_ghr_loff[i] + k->sp_ghr_delta[i];
        if ((landing >= 64 && landing - 64 == offset) ||
            (landing < 0 && landing + 64 == offset))
            return spp_advance_sig(k->sp_ghr_sig[i], k->sp_ghr_delta[i]);
    }
    return 0;
}

static void spp_pt_update(kctx_t *k, int64_t sig, int64_t delta) {
    int64_t idx = (sig ^ (sig >> 6)) & SPP_PT_MASK;
    int64_t *dl = k->sp_pt_delta + idx * SPP_SLOTS;
    int64_t *cl = k->sp_pt_cdelta + idx * SPP_SLOTS;
    int64_t c_sig = k->sp_pt_csig[idx];
    if (c_sig >= SPP_CMAX) {
        c_sig >>= 1;
        for (int64_t i = 0; i < SPP_SLOTS; i++) cl[i] >>= 1;
    }
    k->sp_pt_csig[idx] = c_sig + 1;
    int64_t victim = 0, victim_count = -1;
    for (int64_t i = 0; i < SPP_SLOTS; i++) {
        if (dl[i] == delta) {
            int64_t count = cl[i] + 1;
            cl[i] = count < SPP_CMAX ? count : SPP_CMAX;
            return;
        }
        if (victim_count < 0 || cl[i] < victim_count) {
            victim = i; victim_count = cl[i];
        }
    }
    dl[victim] = delta;
    cl[victim] = 1;
}

static double spp_threshold(kctx_t *k, int64_t sk, int64_t cycle) {
    if (sk == SCHEME_ESPP && k_bucket(k, cycle) <= 1) return SPP_THR_RELAX;
    return SPP_THR_PF;
}

static void spp_train(kctx_t *k, int64_t sk, int64_t cycle, int64_t pc,
                      int64_t addr) {
    int64_t *ci = k->ci;
    ci[CI_sp_trainings]++;
    ci[CI_cand_len] = 0;
    int64_t page = addr >> (LINE_SHIFT + PG_SHIFT);
    int64_t offset = (addr >> LINE_SHIFT) & 63;
    int64_t sidx = page & SPP_ST_MASK;
    int64_t tag = (page >> 8) & 0xFFFF;
    int64_t signature;
    if (k->sp_st_tag[sidx] >= 0 && k->sp_st_tag[sidx] == tag) {
        int64_t delta = offset - k->sp_st_loff[sidx];
        if (delta == 0) return;
        spp_pt_update(k, k->sp_st_sig[sidx], delta);
        signature = spp_advance_sig(k->sp_st_sig[sidx], delta);
        k->sp_st_sig[sidx] = signature;
        k->sp_st_loff[sidx] = offset;
    } else {
        signature = spp_ghr_bootstrap(k, offset);
        k->sp_st_tag[sidx] = tag;
        k->sp_st_loff[sidx] = offset;
        k->sp_st_sig[sidx] = signature;
        if (signature == 0) return;
    }
    /* _lookahead: the confidence-cascaded walk.  The confidence product
       is computed in CPython's left-associative order. */
    double threshold = spp_threshold(k, sk, cycle);
    int64_t page_base = page << PG_SHIFT;
    uint64_t seen = 1ull << offset;   /* in-page lines as an offset bitmap */
    double confidence = 1.0;
    int64_t off = offset;
    int64_t n_cands = 0, n_filtered = 0;
    for (int64_t depth = 0; depth < SPP_DEPTH; depth++) {
        int64_t idx = (signature ^ (signature >> 6)) & SPP_PT_MASK;
        int64_t c_sig = k->sp_pt_csig[idx];
        if (c_sig == 0) break;
        int64_t *dl = k->sp_pt_delta + idx * SPP_SLOTS;
        int64_t *cl = k->sp_pt_cdelta + idx * SPP_SLOTS;
        double best_conf = 0.0;
        int64_t best_delta = 0;
        for (int64_t s = 0; s < SPP_SLOTS; s++) {
            int64_t c_delta = cl[s];
            if (c_delta == 0) continue;
            int64_t delta = dl[s];
            double conf = confidence * (double)c_delta / (double)c_sig;
            if (conf > best_conf) { best_conf = conf; best_delta = delta; }
            if (conf < threshold) continue;
            int64_t target = off + delta;
            if (target >= 0 && target < 64) {
                int64_t line = page_base + target;
                if (!((seen >> target) & 1)) {
                    /* inlined prefetch filter */
                    int64_t fidx = (line ^ (line >> 10)) & SPP_FLT_MASK;
                    if (k->sp_flt[fidx] == line) n_filtered++;
                    else {
                        k->sp_flt[fidx] = line;
                        seen |= 1ull << target;
                        k->cand_line[n_cands] = line;
                        k->cand_lp[n_cands] = 0;
                        n_cands++;
                    }
                }
            } else {
                /* crossing the page: remember for cross-page bootstrap */
                spp_ghr_insert(k, signature, conf, off, delta);
            }
            if (n_cands >= SPP_MAXC) {
                ci[CI_sp_filtered] += n_filtered;
                ci[CI_cand_len] = n_cands;
                return;
            }
        }
        if (best_delta == 0 || best_conf < SPP_THR_LA) break;
        int64_t next_off = off + best_delta;
        if (next_off < 0 || next_off >= 64) break;
        signature = spp_advance_sig(signature, best_delta);
        off = next_off;
        confidence = best_conf;
    }
    ci[CI_sp_filtered] += n_filtered;
    ci[CI_cand_len] = n_cands;
}

/* --- DSPatch (stock compressed geometry: 32-bit patterns, 16-bit
       halves, one stored bit per 128B line pair) --- */

static int64_t dp_fold8(int64_t pc) {
    uint64_t v = (uint64_t)pc;
    uint64_t out = 0;
    while (v) { out ^= v & 0xFF; v >>= 8; }
    return (int64_t)out;
}

static uint32_t dp_rotl32(uint32_t p, int64_t a) {
    a &= 31;
    if (!a) return p;
    return (p << a) | (p >> (32 - a));
}

static uint32_t dp_rotr32(uint32_t p, int64_t a) {
    a &= 31;
    if (!a) return p;
    return (p >> a) | (p << (32 - a));
}

static uint32_t dp_compress(uint64_t p) {
    uint32_t out = 0;
    while (p) {
        int64_t pos = __builtin_ctzll(p);
        out |= 1u << (pos >> 1);
        p &= p - 1;
    }
    return out;
}

/* SptEntry.update_half (Section 3.6 order: measure, then CovP, then
   AccP).  allow_reset is hardcoded true — the stock config. */
static void dp_update_half(kctx_t *k, int64_t e, int64_t half,
                           int64_t program_half, int64_t bw_bucket) {
    int64_t shift = half * 16;
    int64_t cov = (k->dp_spt_cov[e] >> shift) & 0xFFFF;
    int64_t acc = (k->dp_spt_acc[e] >> shift) & 0xFFFF;
    int64_t c_real = __builtin_popcountll((uint64_t)program_half);
    int64_t c_acc_cov = __builtin_popcountll((uint64_t)(cov & program_half));
    int64_t c_cov = __builtin_popcountll((uint64_t)cov);
    int64_t four_acc = 4 * c_acc_cov;
    int accuracy_bad = (c_cov <= 0) || (four_acc < 2 * c_cov);
    int coverage_bad = (c_real <= 0) || (four_acc < 2 * c_real);
    int64_t m = 2 * e + half;
    if (accuracy_bad || coverage_bad) {
        if (k->dp_spt_mcov[m] < DP_CMAX) k->dp_spt_mcov[m]++;
    }
    int64_t c_acc_acc = __builtin_popcountll((uint64_t)(acc & program_half));
    int64_t c_acc = __builtin_popcountll((uint64_t)acc);
    if (c_acc <= 0 || 4 * c_acc_acc < 2 * c_acc) {
        if (k->dp_spt_macc[m] < DP_CMAX) k->dp_spt_macc[m]++;
    } else if (k->dp_spt_macc[m] > 0) k->dp_spt_macc[m]--;
    if (k->dp_spt_mcov[m] >= DP_CMAX && (bw_bucket == 3 || coverage_bad)) {
        cov = program_half;          /* relearn from scratch */
        k->dp_spt_or[m] = 0;
        k->dp_spt_mcov[m] = 0;
    } else if (k->dp_spt_or[m] < DP_CMAX) {
        int64_t grown = cov | program_half;
        if (grown != cov) k->dp_spt_or[m]++;
        cov = grown;
    }
    int64_t cleared = ~(0xFFFFll << shift);
    k->dp_spt_cov[e] = (k->dp_spt_cov[e] & cleared) | (cov << shift);
    k->dp_spt_acc[e] = (k->dp_spt_acc[e] & cleared)
                     | ((program_half & cov) << shift);
}

/* DSPatch._learn: one bucket read first, then per-trigger SPT folds. */
static void dp_learn(kctx_t *k, int64_t cycle, uint64_t pattern,
                     const int64_t *trig_sig, const int64_t *trig_off) {
    uint32_t program = dp_compress(pattern);
    int64_t bw_bucket = k_bucket(k, cycle);
    for (int64_t segment = 0; segment < 2; segment++) {
        if (trig_sig[segment] < 0) continue;
        uint32_t anchored = dp_rotr32(program, trig_off[segment] >> 1);
        int64_t e = trig_sig[segment] & DP_SPT_MASK;
        int64_t nhalves = segment == 0 ? 2 : 1;
        for (int64_t half = 0; half < nhalves; half++)
            dp_update_half(k, e, half,
                           (int64_t)((anchored >> (half * 16)) & 0xFFFF),
                           bw_bucket);
    }
}

/* DSPatch._predict + _expand: Figure 10 selection per half (one bucket
   read per half, as the Python does), rotate to the trigger, expand
   each compressed bit to its line pair skipping the trigger line. */
static int64_t dp_predict(kctx_t *k, int64_t cycle, int64_t sig,
                          int64_t page, int64_t trig_off, int64_t segment) {
    int64_t *ci = k->ci;
    /* Candidates append after whatever an earlier composite component
       already emitted (base == 0 for standalone DSPatch). */
    int64_t base = ci[CI_cand_len];
    int64_t e = sig & DP_SPT_MASK;
    int64_t trigger_bit = trig_off >> 1;
    int64_t nhalves = segment == 0 ? 2 : 1;
    uint32_t anchored = 0;
    int64_t low_priority = 0;
    for (int64_t half = 0; half < nhalves; half++) {
        int64_t m = 2 * e + half;
        int64_t bucket = k_bucket(k, cycle);
        int cov_sat = k->dp_spt_mcov[m] >= DP_CMAX;
        int acc_sat = k->dp_spt_macc[m] >= DP_CMAX;
        int64_t chunk;
        if (bucket == 3) {
            if (acc_sat) { ci[CI_dp_pred_supp]++; continue; }
            chunk = (k->dp_spt_acc[e] >> (half * 16)) & 0xFFFF;
            ci[CI_dp_pred_accp]++;
        } else if (bucket == 2) {
            if (cov_sat) {
                chunk = (k->dp_spt_acc[e] >> (half * 16)) & 0xFFFF;
                ci[CI_dp_pred_accp]++;
            } else {
                chunk = (k->dp_spt_cov[e] >> (half * 16)) & 0xFFFF;
                ci[CI_dp_pred_covp]++;
            }
        } else {
            chunk = (k->dp_spt_cov[e] >> (half * 16)) & 0xFFFF;
            ci[CI_dp_pred_covp]++;
            if (cov_sat) low_priority = 1;   /* COV_LOW */
        }
        anchored |= (uint32_t)chunk << (half * 16);
    }
    if (!anchored) return base;
    uint32_t p = dp_rotl32(anchored, trigger_bit);
    int64_t base_line = page << PG_SHIFT;
    int64_t n = base, emitted = 0;
    while (p) {
        int64_t first_line = (int64_t)__builtin_ctz(p) << 1;
        p &= p - 1;
        for (int64_t lo = first_line; lo < first_line + 2; lo++) {
            if (lo == trig_off) continue;
            int64_t line = base_line + lo;
            /* Composite merge: earlier components take precedence, so a
               line already emitted (by SPP, at cand 0..base) is dropped —
               but it still counts toward DSPatch's own per-trigger cap,
               which the Python applies before the merge dedup. */
            int dup = 0;
            for (int64_t j = 0; j < base; j++)
                if (k->cand_line[j] == line) { dup = 1; break; }
            if (!dup) {
                k->cand_line[n] = line;
                k->cand_lp[n] = low_priority;
                n++;
            }
            emitted++;
            if (emitted >= DP_MAXC) return n;
        }
    }
    return n;
}

/* DSPatch.train: PB LRU scan over packed arrays (index 0 = oldest,
   matching dict insertion order), insert-then-learn on eviction, then
   the segment trigger and the pattern-bit record. */
static void dp_train(kctx_t *k, int64_t cycle, int64_t pc, int64_t addr) {
    int64_t *ci = k->ci;
    ci[CI_dp_trainings]++;
    int64_t page = addr >> (LINE_SHIFT + PG_SHIFT);
    int64_t line_off = (addr >> LINE_SHIFT) & 63;
    int64_t segment = line_off >> 5;
    int64_t len = ci[CI_dp_pb_len];
    int64_t slot = -1;
    for (int64_t i = 0; i < len; i++)
        if (k->dp_pb_page[i] == page) { slot = i; break; }
    if (slot >= 0) {
        /* LRU refresh: move to the tail, preserving relative order. */
        uint64_t pat = k->dp_pb_pattern[slot];
        int64_t s0 = k->dp_pb_trig_sig[2 * slot];
        int64_t s1 = k->dp_pb_trig_sig[2 * slot + 1];
        int64_t o0 = k->dp_pb_trig_off[2 * slot];
        int64_t o1 = k->dp_pb_trig_off[2 * slot + 1];
        for (int64_t i = slot; i < len - 1; i++) {
            k->dp_pb_page[i] = k->dp_pb_page[i + 1];
            k->dp_pb_pattern[i] = k->dp_pb_pattern[i + 1];
            k->dp_pb_trig_sig[2 * i] = k->dp_pb_trig_sig[2 * i + 2];
            k->dp_pb_trig_sig[2 * i + 1] = k->dp_pb_trig_sig[2 * i + 3];
            k->dp_pb_trig_off[2 * i] = k->dp_pb_trig_off[2 * i + 2];
            k->dp_pb_trig_off[2 * i + 1] = k->dp_pb_trig_off[2 * i + 3];
        }
        slot = len - 1;
        k->dp_pb_page[slot] = page;
        k->dp_pb_pattern[slot] = pat;
        k->dp_pb_trig_sig[2 * slot] = s0;
        k->dp_pb_trig_sig[2 * slot + 1] = s1;
        k->dp_pb_trig_off[2 * slot] = o0;
        k->dp_pb_trig_off[2 * slot + 1] = o1;
    } else {
        uint64_t ev_pat = 0;
        int64_t ev_sig[2] = {-1, -1};
        int64_t ev_off[2] = {0, 0};
        int evicted = 0;
        if (len >= DP_PB) {
            ev_pat = k->dp_pb_pattern[0];
            ev_sig[0] = k->dp_pb_trig_sig[0];
            ev_sig[1] = k->dp_pb_trig_sig[1];
            ev_off[0] = k->dp_pb_trig_off[0];
            ev_off[1] = k->dp_pb_trig_off[1];
            evicted = 1;
            ci[CI_dp_pb_evictions]++;
            for (int64_t i = 0; i < len - 1; i++) {
                k->dp_pb_page[i] = k->dp_pb_page[i + 1];
                k->dp_pb_pattern[i] = k->dp_pb_pattern[i + 1];
                k->dp_pb_trig_sig[2 * i] = k->dp_pb_trig_sig[2 * i + 2];
                k->dp_pb_trig_sig[2 * i + 1] = k->dp_pb_trig_sig[2 * i + 3];
                k->dp_pb_trig_off[2 * i] = k->dp_pb_trig_off[2 * i + 2];
                k->dp_pb_trig_off[2 * i + 1] = k->dp_pb_trig_off[2 * i + 3];
            }
            len--;
        }
        slot = len;
        k->dp_pb_page[slot] = page;
        k->dp_pb_pattern[slot] = 0;
        k->dp_pb_trig_sig[2 * slot] = -1;
        k->dp_pb_trig_sig[2 * slot + 1] = -1;
        k->dp_pb_trig_off[2 * slot] = 0;
        k->dp_pb_trig_off[2 * slot + 1] = 0;
        ci[CI_dp_pb_len] = len + 1;
        /* Python order: PageBuffer.insert first, then _learn(evicted). */
        if (evicted) dp_learn(k, cycle, ev_pat, ev_sig, ev_off);
    }
    if (k->dp_pb_trig_sig[2 * slot + segment] < 0) {
        int64_t signature = dp_fold8(pc);
        k->dp_pb_trig_sig[2 * slot + segment] = signature;
        k->dp_pb_trig_off[2 * slot + segment] = line_off;
        ci[CI_dp_triggers]++;
        ci[CI_cand_len] = dp_predict(k, cycle, signature, page, line_off, segment);
    }
    k->dp_pb_pattern[slot] |= 1ull << line_off;
}

/* --- BOP / eBOP (prefetchers/bop.py).  Every BopConfig value is read
       from the bp_ slots and the offset list from bp_offsets, so one twin
       serves any config with unique offsets.  The RR table, the score
       table (offset-list order) and the ranked active offsets are flat
       arrays; _pending_fills is a ring of (ready, line) pairs that krun
       keeps room in (RC_GROW) before each op. --- */

static int64_t bop_rr_index(const int64_t *ci, int64_t line) {
    return (line ^ (line >> 8)) & ci[CI_bp_rr_mask];
}

/* BOP._finish_phase.  sorted() by -score is stable, so the ranking takes
   the first maximal score not yet taken (INT64_MIN marks a taken score;
   the table is zeroed right after); the bad-score filter stops at the
   first score at or below BadScore, since every later one is too. */
static void bop_finish_phase(kctx_t *k) {
    int64_t *ci = k->ci;
    int64_t *sc = k->bp_scores;
    int64_t n = ci[CI_bp_n_off];
    int64_t keep = ci[CI_bp_degree] > 4 ? ci[CI_bp_degree] : 4;
    if (keep > n) keep = n;
    int64_t len = 0;
    for (int64_t j = 0; j < keep; j++) {
        int64_t best = -1;
        for (int64_t i = 0; i < n; i++)
            if (sc[i] != INT64_MIN && (best < 0 || sc[i] > sc[best])) best = i;
        if (sc[best] <= ci[CI_bp_bad_score]) break;
        k->bp_active[len++] = k->bp_offsets[best];
        sc[best] = INT64_MIN;
    }
    ci[CI_bp_active_len] = len;
    for (int64_t i = 0; i < n; i++) sc[i] = 0;
    ci[CI_bp_test_pos] = 0;
    ci[CI_bp_round] = 0;
    ci[CI_bp_phases]++;
}

static void bop_train(kctx_t *k, int64_t sk, int64_t cycle, int64_t addr) {
    int64_t *ci = k->ci;
    ci[CI_bp_trainings]++;
    ci[CI_cand_len] = 0;
    int64_t line = addr >> LINE_SHIFT;
    int64_t offset_in_page = line & 63;
    /* _drain_pending: fills that completed by now enter the RR table */
    int64_t *pend = k->bp_pend;
    int64_t ring_mask = ci[CI_bp_pend_cap] - 1;
    int64_t head = ci[CI_bp_pend_head], plen = ci[CI_bp_pend_len];
    while (plen && pend[2 * head] <= cycle) {
        int64_t filled = pend[2 * head + 1];
        k->bp_rr[bop_rr_index(ci, filled)] = filled;
        head = (head + 1) & ring_mask;
        plen--;
    }
    int64_t pos = ci[CI_bp_test_pos];
    int64_t test_offset = k->bp_offsets[pos];
    int64_t base_offset = offset_in_page - test_offset;
    if (base_offset >= 0 && base_offset < 64) {
        int64_t probe = line - test_offset;
        if (k->bp_rr[bop_rr_index(ci, probe)] == probe) {
            int64_t score = k->bp_scores[pos] + 1;
            k->bp_scores[pos] = score;
            if (score >= ci[CI_bp_max_score]) bop_finish_phase(k);
        }
    }
    /* _test_pos += 1 after a possible mid-train _finish_phase */
    pos = ci[CI_bp_test_pos] + 1;
    ci[CI_bp_test_pos] = pos;
    if (pos >= ci[CI_bp_n_off]) {
        ci[CI_bp_test_pos] = 0;
        ci[CI_bp_round]++;
        if (ci[CI_bp_round] >= ci[CI_bp_max_round]) bop_finish_phase(k);
    }
    /* never full here: krun reserved room for this op's trainings */
    int64_t tail = (head + plen) & ring_mask;
    pend[2 * tail] = cycle + ci[CI_bp_fill_delay];
    pend[2 * tail + 1] = line;
    ci[CI_bp_pend_head] = head;
    ci[CI_bp_pend_len] = plen + 1;
    /* _generate: no bucket read without active offsets */
    int64_t n_active = ci[CI_bp_active_len];
    if (!n_active) return;
    int64_t degree;
    if (sk == SCHEME_EBOP) {
        int64_t bucket = k_bucket(k, cycle);   /* EBOP._degree */
        degree = bucket <= 1 ? 4 : (bucket == 2 ? 2 : 1);
    } else degree = ci[CI_bp_degree];
    if (degree > n_active) degree = n_active;
    int64_t n = 0;
    for (int64_t i = 0; i < degree; i++) {
        int64_t off = k->bp_active[i];
        int64_t target_offset = offset_in_page + off;
        if (target_offset >= 0 && target_offset < 64) {
            k->cand_line[n] = line + off;
            k->cand_lp[n] = 0;
            n++;
        }
    }
    ci[CI_cand_len] = n;
}

/* --- SMS (prefetchers/sms.py).  Geometry from the sm_ slots.  The AT, FT
       and PHT are stamped record tables (layout.SM_REC / SM_PHT_REC):
       every insert or LRU refresh takes a fresh stamp from sm_clock, so
       ascending stamps reproduce the AT's and each PHT set's LRU order
       and the FT's insertion order. --- */

static int64_t sms_signature(int64_t pc, int64_t offset) {
    /* ((pc << 5) ^ (pc >> 11) ^ offset) & 0xFFFFFFFF over Python's
       unbounded ints: the low 32 bits of each term agree. */
    return (int64_t)((((uint64_t)pc << 5) ^ (uint64_t)(pc >> 11)
                      ^ (uint64_t)offset) & 0xFFFFFFFFull);
}

/* The PHT set of `signature`: its first way's record; *tag gets the tag. */
static int64_t *sms_pht_set(kctx_t *k, int64_t signature, int64_t *tag) {
    const int64_t *ci = k->ci;
    *tag = signature >> ci[CI_sm_set_bits];
    int64_t set = signature & (ci[CI_sm_pht_sets] - 1);
    return k->sm_pht + set * ci[CI_sm_pht_ways] * SM_PHT_REC;
}

/* SMS._pht_store of one AT record. */
static void sms_pht_store(kctx_t *k, const int64_t *entry) {
    if (__builtin_popcountll((uint64_t)entry[1]) < 2) return;
    int64_t *ci = k->ci;
    int64_t tag;
    int64_t *row = sms_pht_set(k, sms_signature(entry[2], entry[3]), &tag);
    int64_t ways = ci[CI_sm_pht_ways];
    int64_t slot = -1, free_slot = -1, oldest = -1;
    for (int64_t w = 0; w < ways; w++) {
        const int64_t *r = row + SM_PHT_REC * w;
        if (!r[2]) { if (free_slot < 0) free_slot = w; continue; }
        if (r[0] == tag) { slot = w; break; }
        if (oldest < 0 || r[2] < row[SM_PHT_REC * oldest + 2]) oldest = w;
    }
    /* refresh in place, else a free way, else evict the set's LRU way */
    if (slot < 0) slot = free_slot >= 0 ? free_slot : oldest;
    int64_t *r = row + SM_PHT_REC * slot;
    r[0] = tag;
    r[1] = entry[1];
    r[2] = ++ci[CI_sm_clock];
    ci[CI_sm_pht_stores]++;
}

/* Find `key` in a stamped table of `cap` records of `rec` fields (key
   first, stamp last): the hit's index, or -1 with *ins set to where an
   insert goes (the first free entry, else the oldest, which the insert
   evicts).  SMS's AT and FT and the streamer's page table use it. */
static int64_t stamp_find(const int64_t *table, int64_t rec, int64_t cap,
                          int64_t key, int64_t *ins) {
    int64_t free_slot = -1, oldest = -1;
    for (int64_t i = 0; i < cap; i++) {
        const int64_t *e = table + rec * i;
        if (!e[rec - 1]) { if (free_slot < 0) free_slot = i; continue; }
        if (e[0] == key) return i;
        if (oldest < 0 || e[rec - 1] < table[rec * oldest + rec - 1]) oldest = i;
    }
    *ins = free_slot >= 0 ? free_slot : oldest;
    return -1;
}

static void sms_train(kctx_t *k, int64_t pc, int64_t addr) {
    int64_t *ci = k->ci;
    ci[CI_sm_trainings]++;
    ci[CI_cand_len] = 0;
    int64_t line = addr >> LINE_SHIFT;
    int64_t region = addr >> ci[CI_sm_region_shift];
    int64_t offset = line & ci[CI_sm_off_mask];
    uint64_t bit = 1ull << offset;

    int64_t at_ins = -1;
    int64_t hit = stamp_find(k->sm_at, SM_REC, ci[CI_sm_at_cap], region, &at_ins);
    if (hit >= 0) {
        int64_t *e = k->sm_at + SM_REC * hit;
        e[1] = (int64_t)((uint64_t)e[1] | bit);
        e[4] = ++ci[CI_sm_clock];           /* refresh LRU position */
        return;
    }

    int64_t ft_ins = -1;
    hit = stamp_find(k->sm_ft, SM_REC, ci[CI_sm_ft_cap], region, &ft_ins);
    if (hit >= 0) {
        /* pop from the FT, _promote into the AT */
        int64_t *f = k->sm_ft + SM_REC * hit;
        f[4] = 0;
        int64_t *e = k->sm_at + SM_REC * at_ins;
        if (e[4]) sms_pht_store(k, e);      /* AT full: evict its LRU entry */
        e[0] = region;
        e[1] = (int64_t)((uint64_t)f[1] | bit);
        e[2] = f[2];
        e[3] = f[3];
        e[4] = ++ci[CI_sm_clock];
        return;
    }

    /* Trigger access to a fresh region: _predict, then _ft_insert. */
    int64_t tag;
    int64_t *row = sms_pht_set(k, sms_signature(pc, offset), &tag);
    int64_t ways = ci[CI_sm_pht_ways];
    for (int64_t w = 0; w < ways; w++) {
        int64_t *r = row + SM_PHT_REC * w;
        if (!r[2] || r[0] != tag) continue;
        r[2] = ++ci[CI_sm_clock];           /* refresh LRU position */
        ci[CI_sm_pht_hits]++;
        int64_t lines = ci[CI_sm_off_mask] + 1;
        uint64_t p = (uint64_t)r[1] & ~bit;
        if (lines < 64) p &= (1ull << lines) - 1;
        int64_t base_line = region << (ci[CI_sm_region_shift] - LINE_SHIFT);
        int64_t n = 0;
        while (p) {
            k->cand_line[n] = base_line + __builtin_ctzll(p);
            k->cand_lp[n] = 0;
            n++;
            p &= p - 1;
        }
        ci[CI_cand_len] = n;
        break;
    }
    int64_t *f = k->sm_ft + SM_REC * ft_ins;   /* FT full: drops its oldest */
    f[0] = region;
    f[1] = (int64_t)bit;
    f[2] = pc;
    f[3] = offset;
    f[4] = ++ci[CI_sm_clock];
}

/* --- Streamer (prefetchers/streamer.py).  tracked_pages and degree from
       the st_ slots.  The page table is a stamped record table
       (layout.ST_REC, capacity tracked_pages): every insert or refresh
       takes a fresh stamp from st_clock, so ascending stamps reproduce
       the dict's LRU order. --- */

static void streamer_train(kctx_t *k, int64_t addr) {
    int64_t *ci = k->ci;
    ci[CI_st_trainings]++;
    ci[CI_cand_len] = 0;
    int64_t page = addr >> (LINE_SHIFT + PG_SHIFT);
    int64_t offset = (addr >> LINE_SHIFT) & 63;
    int64_t line = addr >> LINE_SHIFT;
    int64_t ins = -1;
    int64_t hit = stamp_find(k->st_tab, ST_REC, ci[CI_st_tracked], page, &ins);
    if (hit < 0) {
        /* a full table drops its oldest page for the new one */
        int64_t *e = k->st_tab + ST_REC * ins;
        e[0] = page;
        e[1] = offset;
        e[2] = 0;
        e[3] = 0;
        e[4] = ++ci[CI_st_clock];
        return;
    }
    int64_t *e = k->st_tab + ST_REC * hit;
    int64_t direction = offset > e[1] ? 1 : (offset < e[1] ? -1 : 0);
    if (direction && direction == e[2]) e[3] = e[3] + 1 < 3 ? e[3] + 1 : 3;
    else if (direction) {
        e[2] = direction;
        e[3] = 1;
    }
    e[1] = offset;
    e[4] = ++ci[CI_st_clock];           /* re-inserted: the newest page */
    if (e[3] < 1 || e[2] == 0) return;
    int64_t degree = ci[CI_st_degree];
    int64_t n = 0;
    for (int64_t dist = 1; dist <= degree; dist++) {
        int64_t target = offset + e[2] * dist;
        if (target < 0 || target >= 64) break;
        k->cand_line[n] = line + e[2] * dist;
        k->cand_lp[n] = 0;
        n++;
    }
    ci[CI_cand_len] = n;
}

static void scheme_train(kctx_t *k, int64_t sk, int64_t cycle, int64_t pc,
                         int64_t addr) {
    if (sk == SCHEME_STREAMER) {
        streamer_train(k, addr);
        return;
    }
    if (sk == SCHEME_BOP || sk == SCHEME_EBOP) {
        bop_train(k, sk, cycle, addr);
        return;
    }
    if (sk == SCHEME_SMS) {
        sms_train(k, pc, addr);
        return;
    }
    if (sk == SCHEME_SPP_DSPATCH) {
        /* Section 5.1 adjunct composite: SPP trains first (arbitration
           priority), DSPatch appends with the merge dedup in dp_predict. */
        spp_train(k, SCHEME_SPP, cycle, pc, addr);
        dp_train(k, cycle, pc, addr);
    } else if (sk == SCHEME_DSPATCH) {
        k->ci[CI_cand_len] = 0;
        dp_train(k, cycle, pc, addr);
    } else {
        spp_train(k, sk, cycle, pc, addr);
    }
}

/* --------------------------------------------- MemoryHierarchy._below_l1 */

/* Pre-crossing half: the L2 lookup.  Saves the lookup outcome in the
   b_* slots; returns nonzero when the scheme must be trained (the
   caller runs the compiled twin, or appends a train_buf record and
   returns RC_TRAIN). */
static int below_l1_pre(kctx_t *k, int64_t cycle, int64_t addr, int64_t is_write) {
    int64_t *ci = k->ci;
    int64_t line = addr >> LINE_SHIFT;
    cache_t *l2 = &k->l2;
    int64_t tick = ++(*l2->tick);
    int64_t slot = c_find(l2, line);
    int64_t first_use = 0;
    if (slot < 0) l2->stats[1]++;
    else {
        l2->stats[0]++;
        l2->touch[slot] = tick;
        if (is_write) l2->dirty[slot] = 1;
        if (l2->pref[slot] && !l2->used[slot]) {
            l2->stats[3]++;
            first_use = 1;
            if (l2->ready[slot] > cycle) l2->stats[4]++;
            l2->used[slot] = 1;
        }
    }
    ci[CI_b_line] = line;
    ci[CI_b_slot] = slot;
    ci[CI_b_first_use] = first_use;
    return (int)ci[CI_has_l2pf];
}

static void issue_prefetches(kctx_t *k, int64_t cycle) {
    int64_t *ci = k->ci;
    int64_t n = ci[CI_cand_len];
    cache_t *l2 = &k->l2;
    cache_t *llc = &k->llc;
    for (int64_t i = 0; i < n; i++) {
        int64_t line = k->cand_line[i];
        int64_t lp = k->cand_lp[i];
        if (c_find(l2, line) >= 0) { ci[CI_pf_dropped_resident]++; continue; }
        int64_t ifl = infl_find(k, line);
        if (ifl >= 0) {
            if (k->infl_ready[ifl] > cycle) { ci[CI_pf_dropped_in_flight]++; continue; }
            infl_del(k, ifl);
        }
        if (c_find(llc, line) >= 0) {
            ci[CI_pf_issued]++;
            if (lp) ci[CI_pf_issued_low_priority]++;
            ci[CI_pf_filled_from_llc]++;
            c_fill(l2, line, 1, lp, cycle + llc->hit_lat, 0, 0, 0);
            continue;
        }
        if (ci[CI_inflight_len] >= ci[CI_queue_size]) {
            infl_sweep(k, cycle);
            if (ci[CI_inflight_len] >= ci[CI_queue_size]) {
                ci[CI_pf_dropped_bandwidth]++;
                continue;
            }
        }
        int64_t dl = dram_access(k, cycle, line, 0, 1);
        if (dl < 0) { ci[CI_pf_dropped_bandwidth]++; continue; }
        ci[CI_pf_issued]++;
        if (lp) ci[CI_pf_issued_low_priority]++;
        int64_t ready = cycle + llc->hit_lat + dl;
        ci[CI_pf_filled_from_dram]++;
        /* FILL from DRAM */
        if (ci[CI_pl_on]) pl_push(ci, k->pl_fill, CI_pl_fill_len, line);
        int64_t m = ci[CI_inflight_len]++;
        k->infl_line[m] = line;
        k->infl_ready[m] = ready;
        fill_llc_acct(k, line, 1, ready, lp, cycle);
        c_fill(l2, line, 1, lp, ready, 0, 0, 0);
    }
    ci[CI_cand_len] = 0;
}

/* Post-crossing half: finish the lookup with the scheme's candidates
   (cand_len == 0 when no scheme).  Returns latency, sets *level. */
static int64_t below_l1_post(kctx_t *k, int64_t cycle, int64_t is_write, int64_t *level) {
    int64_t *ci = k->ci;
    int64_t line = ci[CI_b_line];
    int64_t slot = ci[CI_b_slot];
    cache_t *l2 = &k->l2;
    int64_t ncand = ci[CI_cand_len];
    int64_t merge_bound = ci[CI_merge_bound];
    if (slot >= 0) {
        if (ci[CI_b_first_use]) note_use(k, cycle, line, l2->ready[slot]);
        int64_t residual = l2->ready[slot] - cycle;
        if (residual > 0) {
            if (l2->pref[slot] && residual > merge_bound) residual = merge_bound;
        } else residual = 0;
        int64_t latency = l2->hit_lat + residual;
        if (ncand) issue_prefetches(k, cycle);
        *level = 1;
        return latency;
    }
    int64_t ifl = infl_find(k, line);
    if (ifl >= 0) {
        int64_t infl_ready = k->infl_ready[ifl];
        infl_del(k, ifl);
        if (infl_ready > cycle) {
            int64_t residual = infl_ready - cycle;
            if (residual > merge_bound) residual = merge_bound;
            int64_t latency = l2->hit_lat + residual;
            ci[CI_pf_useful]++;
            ci[CI_pf_late]++;
            c_fill(l2, line, 0, 0, cycle + residual, 0, 0, 0);
            notify_useful(k, cycle, line);
            if (ncand) issue_prefetches(k, cycle);
            *level = 2;
            return latency;
        }
    }
    cache_t *llc = &k->llc;
    int64_t ltick = ++(*llc->tick);
    int64_t ls = c_find(llc, line);
    if (ls < 0) llc->stats[1]++;
    else {
        llc->stats[0]++;
        llc->touch[ls] = ltick;
        if (is_write) llc->dirty[ls] = 1;
        if (llc->pref[ls] && !llc->used[ls]) {
            llc->stats[3]++;
            if (llc->ready[ls] > cycle) llc->stats[4]++;
            llc->used[ls] = 1;
            note_use(k, cycle, line, llc->ready[ls]);
        }
        int64_t residual = llc->ready[ls] - cycle;
        if (residual > 0) {
            if (llc->pref[ls] && residual > merge_bound) residual = merge_bound;
        } else residual = 0;
        int64_t latency = llc->hit_lat + residual;
        c_fill(l2, line, 0, 0, cycle + latency, 0, 0, 0);
        if (ncand) issue_prefetches(k, cycle);
        *level = 2;
        return latency;
    }
    int64_t dl = dram_access(k, cycle, line, (int)is_write, 0);
    int64_t latency = llc->hit_lat + dl;
    latency += mshr_allocate(&k->l2m, cycle, cycle + latency);
    latency += mshr_allocate(&k->llcm, cycle, cycle + latency);
    int64_t ready = cycle + latency;
    fill_llc_acct(k, line, 0, ready, 0, cycle);
    c_fill(l2, line, 0, 0, ready, 0, 0, 0);
    if (ncand) issue_prefetches(k, cycle);
    *level = 3;
    return latency;
}

/* ------------------------------------------------------------- assembly */

static void bind(kctx_t *k, void **P) {
    k->ci = (int64_t *)P[P_ci64];
    k->cf = (double *)P[P_cf64];
    k->si = (int64_t *)P[P_si64];
    k->sf = (double *)P[P_sf64];
    int64_t *ci = k->ci;
    int64_t *si = k->si;

    k->l1.valid = (int64_t *)P[P_l1_valid]; k->l1.line = (int64_t *)P[P_l1_line];
    k->l1.dirty = (int64_t *)P[P_l1_dirty]; k->l1.pref = (int64_t *)P[P_l1_pref];
    k->l1.used = (int64_t *)P[P_l1_used]; k->l1.touch = (int64_t *)P[P_l1_touch];
    k->l1.ready = (int64_t *)P[P_l1_ready];
    k->l1.tick = &ci[CI_l1_tick]; k->l1.stats = &ci[CI_l1_demand_hits];
    k->l1.ways = CI(l1_ways); k->l1.set_mask = CI(l1_set_mask);
    k->l1.hit_lat = CI(l1_hit_latency); k->l1.mode = CI(l1_victim_mode);

    k->l2.valid = (int64_t *)P[P_l2_valid]; k->l2.line = (int64_t *)P[P_l2_line];
    k->l2.dirty = (int64_t *)P[P_l2_dirty]; k->l2.pref = (int64_t *)P[P_l2_pref];
    k->l2.used = (int64_t *)P[P_l2_used]; k->l2.touch = (int64_t *)P[P_l2_touch];
    k->l2.ready = (int64_t *)P[P_l2_ready];
    k->l2.tick = &ci[CI_l2_tick]; k->l2.stats = &ci[CI_l2_demand_hits];
    k->l2.ways = CI(l2_ways); k->l2.set_mask = CI(l2_set_mask);
    k->l2.hit_lat = CI(l2_hit_latency); k->l2.mode = CI(l2_victim_mode);

    k->llc.valid = (int64_t *)P[P_llc_valid]; k->llc.line = (int64_t *)P[P_llc_line];
    k->llc.dirty = (int64_t *)P[P_llc_dirty]; k->llc.pref = (int64_t *)P[P_llc_pref];
    k->llc.used = (int64_t *)P[P_llc_used]; k->llc.touch = (int64_t *)P[P_llc_touch];
    k->llc.ready = (int64_t *)P[P_llc_ready];
    k->llc.tick = &si[SI_llc_tick]; k->llc.stats = &si[SI_llc_demand_hits];
    k->llc.ways = CI(llc_ways); k->llc.set_mask = CI(llc_set_mask);
    k->llc.hit_lat = CI(llc_hit_latency); k->llc.mode = CI(llc_victim_mode);

    k->l1m.heap = (int64_t *)P[P_mshr_l1]; k->l1m.len = &ci[CI_mshr_l1_len];
    k->l1m.allocs = &ci[CI_mshr_l1_allocations]; k->l1m.stall = &ci[CI_mshr_l1_stall];
    k->l1m.cap = CI(mshr_l1_cap);
    k->l2m.heap = (int64_t *)P[P_mshr_l2]; k->l2m.len = &ci[CI_mshr_l2_len];
    k->l2m.allocs = &ci[CI_mshr_l2_allocations]; k->l2m.stall = &ci[CI_mshr_l2_stall];
    k->l2m.cap = CI(mshr_l2_cap);
    k->llcm.heap = (int64_t *)P[P_mshr_llc]; k->llcm.len = &ci[CI_mshr_llc_len];
    k->llcm.allocs = &ci[CI_mshr_llc_allocations]; k->llcm.stall = &ci[CI_mshr_llc_stall];
    k->llcm.cap = CI(mshr_llc_cap);

    k->bank_open = (int64_t *)P[P_bank_open];
    k->bank_nextact = (int64_t *)P[P_bank_nextact];
    k->bank_rowready = (int64_t *)P[P_bank_rowready];
    k->ch_busfree = (int64_t *)P[P_ch_busfree];
    k->ch_demandfree = (int64_t *)P[P_ch_demandfree];
    k->infl_line = (int64_t *)P[P_infl_line];
    k->infl_ready = (int64_t *)P[P_infl_ready];
    k->note_buf = (int64_t *)P[P_note_buf];
    k->cand_line = (int64_t *)P[P_cand_line];
    k->cand_lp = (int64_t *)P[P_cand_lp];
    k->train_buf = (int64_t *)P[P_train_buf];

    k->sp_st_tag = (int64_t *)P[P_sp_st_tag];
    k->sp_st_loff = (int64_t *)P[P_sp_st_loff];
    k->sp_st_sig = (int64_t *)P[P_sp_st_sig];
    k->sp_pt_csig = (int64_t *)P[P_sp_pt_csig];
    k->sp_pt_delta = (int64_t *)P[P_sp_pt_delta];
    k->sp_pt_cdelta = (int64_t *)P[P_sp_pt_cdelta];
    k->sp_ghr_sig = (int64_t *)P[P_sp_ghr_sig];
    k->sp_ghr_conf = (double *)P[P_sp_ghr_conf];
    k->sp_ghr_loff = (int64_t *)P[P_sp_ghr_loff];
    k->sp_ghr_delta = (int64_t *)P[P_sp_ghr_delta];
    k->sp_flt = (int64_t *)P[P_sp_flt];
    k->dp_pb_page = (int64_t *)P[P_dp_pb_page];
    k->dp_pb_pattern = (uint64_t *)P[P_dp_pb_pattern];
    k->dp_pb_trig_sig = (int64_t *)P[P_dp_pb_trig_sig];
    k->dp_pb_trig_off = (int64_t *)P[P_dp_pb_trig_off];
    k->dp_spt_cov = (int64_t *)P[P_dp_spt_cov];
    k->dp_spt_acc = (int64_t *)P[P_dp_spt_acc];
    k->dp_spt_mcov = (int64_t *)P[P_dp_spt_mcov];
    k->dp_spt_or = (int64_t *)P[P_dp_spt_or];
    k->dp_spt_macc = (int64_t *)P[P_dp_spt_macc];
    k->bp_rr = (int64_t *)P[P_bp_rr];
    k->bp_offsets = (int64_t *)P[P_bp_offsets];
    k->bp_scores = (int64_t *)P[P_bp_scores];
    k->bp_active = (int64_t *)P[P_bp_active];
    k->bp_pend = (int64_t *)P[P_bp_pend];
    k->sm_at = (int64_t *)P[P_sm_at];
    k->sm_ft = (int64_t *)P[P_sm_ft];
    k->sm_pht = (int64_t *)P[P_sm_pht];
    k->st_tab = (int64_t *)P[P_st_tab];
    k->pl_dem = (int64_t *)P[P_pl_dem];
    k->pl_fill = (int64_t *)P[P_pl_fill];
    k->pl_vic = (int64_t *)P[P_pl_vic];
}

/* ------------------------------------------------------------------ krun */

static long krun(void **P) {
    kctx_t k;
    bind(&k, P);
    int64_t *ci = k.ci;
    double *cf = k.cf;
    int64_t *op_gap = (int64_t *)P[P_op_gap];
    int64_t *op_pc = (int64_t *)P[P_op_pc];
    int64_t *op_addr = (int64_t *)P[P_op_addr];
    int64_t *op_write = (int64_t *)P[P_op_write];
    int64_t *op_dep = (int64_t *)P[P_op_dep];
    int64_t *win_idx = (int64_t *)P[P_win_idx];
    double *win_ret = (double *)P[P_win_ret];
    int64_t *s_valid = (int64_t *)P[P_stride_valid];
    int64_t *s_tag = (int64_t *)P[P_stride_tag];
    int64_t *s_last = (int64_t *)P[P_stride_last];
    int64_t *s_stride = (int64_t *)P[P_stride_stride];
    int64_t *s_conf = (int64_t *)P[P_stride_conf];
    int64_t *pf_buf = (int64_t *)P[P_pf_buf];

    /* batch bounds + core constants */
    int64_t pos = CI(pos);
    int64_t end = CI(end);
    int64_t strict = CI(strict);
    double horizon = CF(horizon);
    int64_t width = CI(width);
    double width_d = (double)width;
    int64_t rob_size = CI(rob_size);
    double retire_step = CF(retire_step);
    int64_t instr = CI(instr);
    double retire = CF(retire);
    double last_load_done = CF(last_load_done);
    int64_t has_l1pf = CI(has_l1pf);
    int64_t sk = CI(scheme_kind);
    int64_t s_mask = CI(stride_mask);
    int64_t s_cthr = CI(stride_conf_threshold);
    int64_t s_cmax = CI(stride_conf_max);
    int64_t s_degree = CI(stride_degree);
    /* Below-L1 lookups the next op can make: its demand access and each
       stride prefetch.  BOP's pending-fill ring must hold one more entry
       per lookup (each trains); each pollution log must hold what the
       op can append: one pair per lookup, and per lookup a fill and a
       victim per candidate (KernelState._log_room). */
    int64_t lookups = 1 + (has_l1pf ? s_degree : 0);
    int64_t bop_room = (sk == SCHEME_BOP || sk == SCHEME_EBOP) ? lookups : 0;
    int64_t rec = CI(pl_on);
    int64_t pl_cands = lookups * CI(cand_cap);
    long rc = RC_DONE;

    /* per-op state (restored from ctx slots on a resume) */
    int64_t cycle = 0, pc = 0, addr = 0, is_write = 0, idx = 0;
    int64_t l1_slot = -1, pf_i = 0, pf_n = 0, latency = 0, lvl = 0;
    double enter = 0.0;

#define SAVE_LOCALS do { \
        CI(pos) = pos; CI(instr) = instr; \
        CF(retire) = retire; CF(last_load_done) = last_load_done; \
    } while (0)
#define SAVE_CTX do { \
        CI(ctx_cycle) = cycle; CI(ctx_pc) = pc; CI(ctx_addr) = addr; \
        CI(ctx_is_write) = is_write; CI(ctx_idx) = idx; CF(ctx_enter) = enter; \
        CI(ctx_line) = addr >> LINE_SHIFT; CI(ctx_l1_slot) = l1_slot; \
        CI(ctx_pf_i) = pf_i; CI(ctx_pf_n) = pf_n; \
    } while (0)

    {
        int64_t phase = CI(phase);
        if (phase != PH_TOP) {
            cycle = CI(ctx_cycle); pc = CI(ctx_pc); addr = CI(ctx_addr);
            is_write = CI(ctx_is_write); idx = CI(ctx_idx); enter = CF(ctx_enter);
            l1_slot = CI(ctx_l1_slot); pf_i = CI(ctx_pf_i); pf_n = CI(ctx_pf_n);
            CI(phase) = PH_TOP;
            if (phase == PH_L1PF_TRAIN) goto resume_l1pf;
            goto resume_demand;
        }
    }

    while (pos < end) {
        if (retire > horizon || (strict && retire == horizon)) break;
        if (bop_room && CI(bp_pend_len) + bop_room > CI(bp_pend_cap)) {
            rc = RC_GROW;
            break;
        }
        if (rec && (CI(pl_dem_len) + lookups > CI(pl_dem_cap)
                    || CI(pl_fill_len) + pl_cands > CI(pl_fill_cap)
                    || CI(pl_vic_len) + pl_cands > CI(pl_vic_cap))) {
            rc = RC_GROW;
            break;
        }
        {
            int64_t gap = op_gap[pos];
            pc = op_pc[pos];
            addr = op_addr[pos];
            is_write = op_write[pos];
            int64_t dep = op_dep[pos];
            pos++;
            if (gap) {
                instr += gap;
                retire += (double)gap / width_d;
            }
            idx = instr;
            instr++;
            int64_t rob_idx = idx - rob_size;
            if (rob_idx <= 0) {
                enter = (double)idx / width_d;
            } else {
                int64_t head = CI(win_head), len = CI(win_len);
                int64_t mask = CI(win_cap) - 1;
                while (len > 1 && win_idx[(head + 1) & mask] <= rob_idx) {
                    head = (head + 1) & mask;
                    len--;
                }
                CI(win_head) = head;
                CI(win_len) = len;
                double floor_;
                if (!len || win_idx[head] > rob_idx)
                    floor_ = (double)rob_idx / width_d;
                else
                    floor_ = win_ret[head]
                           + (double)(rob_idx - win_idx[head]) / width_d;
                enter = (double)idx / width_d;
                if (floor_ > enter) enter = floor_;
            }
            if (dep && last_load_done > enter) enter = last_load_done;

            /* MemoryHierarchy.access: L1 lookup */
            cycle = (int64_t)enter;
            CI(demand_accesses)++;
            int64_t line = addr >> LINE_SHIFT;
            int64_t t1 = ++(*k.l1.tick);
            l1_slot = c_find(&k.l1, line);
            if (l1_slot < 0) k.l1.stats[1]++;
            else {
                k.l1.stats[0]++;
                k.l1.touch[l1_slot] = t1;
                if (is_write) k.l1.dirty[l1_slot] = 1;
                if (k.l1.pref[l1_slot] && !k.l1.used[l1_slot]) {
                    k.l1.stats[3]++;
                    if (k.l1.ready[l1_slot] > cycle) k.l1.stats[4]++;
                    k.l1.used[l1_slot] = 1;
                }
            }

            /* PcStridePrefetcher.train */
            pf_n = 0;
            pf_i = 0;
            if (has_l1pf) {
                CI(stride_trainings)++;
                int64_t sidx = (pc ^ (pc >> 12)) & s_mask;
                if (!s_valid[sidx] || s_tag[sidx] != pc) {
                    s_valid[sidx] = 1;
                    s_tag[sidx] = pc;
                    s_last[sidx] = line;
                    s_stride[sidx] = 0;
                    s_conf[sidx] = 0;
                } else {
                    int64_t stride = line - s_last[sidx];
                    if (stride != 0) {
                        if (stride == s_stride[sidx]) {
                            int64_t conf = s_conf[sidx] + 1;
                            s_conf[sidx] = conf < s_cmax ? conf : s_cmax;
                        } else {
                            s_stride[sidx] = stride;
                            s_conf[sidx] = 1;
                        }
                        if (s_conf[sidx] >= s_cthr) {
                            int64_t page = line >> PG_SHIFT;
                            for (int64_t d = 1; d <= s_degree; d++) {
                                int64_t target = line + stride * d;
                                if ((target >> PG_SHIFT) != page) break;
                                pf_buf[pf_n++] = target;
                            }
                        }
                    }
                    s_last[sidx] = line;
                }
            }
        }

        /* _issue_l1_prefetch for each stride candidate */
pf_loop:
        while (pf_i < pf_n) {
            int64_t cand = pf_buf[pf_i];
            if (c_find(&k.l1, cand) >= 0) { pf_i++; continue; }
            mshr_drain(&k.l1m, cycle);
            if (*k.l1m.len >= k.l1m.cap) { pf_i++; continue; }
            if (below_l1_pre(&k, cycle, cand << LINE_SHIFT, 0)) {
                if (sk) scheme_train(&k, sk, cycle, pc, cand << LINE_SHIFT);
                else {
                    SAVE_CTX;
                    int64_t n = CI(tb_len);
                    int64_t *tb = k.train_buf + 4 * n;
                    tb[0] = cycle; tb[1] = pc;
                    tb[2] = cand << LINE_SHIFT;
                    tb[3] = CI(b_slot) >= 0;
                    CI(tb_len) = n + 1;
                    CI(phase) = PH_L1PF_TRAIN;
                    SAVE_LOCALS;
                    return RC_TRAIN;
                }
            } else CI(cand_len) = 0;
resume_l1pf:
            latency = below_l1_post(&k, cycle, 0, &lvl);
            if (rec) pl_push(ci, k.pl_dem, CI_pl_dem_len, CI(b_line));
            mshr_allocate(&k.l1m, cycle, cycle + latency);
            c_fill(&k.l1, CI(b_line), 1, 0, cycle + latency, 0, 0, 0);
            pf_i++;
        }

        /* demand completion (read the slot *after* prefetch issues: a
           fill that recycled this slot is visible, like the object
           path's recycled CacheLine) */
        if (l1_slot >= 0) {
            int64_t rdy = k.l1.ready[l1_slot];
            latency = k.l1.hit_lat + (rdy > cycle ? rdy - cycle : 0);
            lvl = 0;
        } else {
            if (below_l1_pre(&k, cycle, addr, is_write)) {
                if (sk) scheme_train(&k, sk, cycle, pc, addr);
                else {
                    SAVE_CTX;
                    int64_t n = CI(tb_len);
                    int64_t *tb = k.train_buf + 4 * n;
                    tb[0] = cycle; tb[1] = pc; tb[2] = addr;
                    tb[3] = CI(b_slot) >= 0;
                    CI(tb_len) = n + 1;
                    CI(phase) = PH_DEMAND_TRAIN;
                    SAVE_LOCALS;
                    return RC_TRAIN;
                }
            } else CI(cand_len) = 0;
resume_demand:
            latency = below_l1_post(&k, cycle, is_write, &lvl);
            if (rec) pl_push(ci, k.pl_dem, CI_pl_dem_len, CI(b_line));
            latency += mshr_allocate(&k.l1m, cycle, cycle + latency);
            c_fill(&k.l1, addr >> LINE_SHIFT, 0, 0, cycle + latency, 0, 0, 0);
        }

        /* retirement epilogue */
        if (is_write) {
            retire += retire_step;
            if (enter > retire) retire = enter;
        } else {
            double done = enter + (double)latency;
            retire += retire_step;
            if (done > retire) retire = done;
            last_load_done = done;
        }
        {
            int64_t mask = CI(win_cap) - 1;
            int64_t w = (CI(win_head) + CI(win_len)) & mask;
            win_idx[w] = idx;
            win_ret[w] = retire;
            CI(win_len)++;
        }
        ci[CI_hit_l1 + lvl]++;
    }

    SAVE_LOCALS;
    return rc;
}

/* ---------------------------------------------------------------- ksched */

/* interleave_two_level (cpu/core.py) over the cores' pointer tables: run
   the minimum-(retire, core) core through krun until its retirement time
   passes the second-smallest entry (DBL_MAX for a lone core; strict when
   that entry's core index is smaller) or it reaches stop[core], its
   pending warmup checkpoint (-1 once fired), then re-select.  Returns
   RC_DONE once every core is done.  Otherwise it sets *who and returns
   RC_TRAIN (the core is suspended mid-op on a training crossing) or
   RC_YIELD (the core stopped between ops with usefulness notes queued or
   at its checkpoint).  Re-entered with *who suspended mid-op, it first
   finishes that core's batch under the bounds it started with. */
long ksched(void ***tables, long n_cores, long long *stop, long long *who) {
    int64_t cur = *who;
    if (cur >= 0 && ((int64_t *)tables[cur][P_ci64])[CI_phase] != PH_TOP)
        goto resume;
    for (;;) {
        int64_t best = -1, second = -1;
        double best_t = 0.0, second_t = 0.0;
        for (int64_t i = 0; i < n_cores; i++) {
            const int64_t *ci = (const int64_t *)tables[i][P_ci64];
            if (CI(pos) >= CI(n_ops)) continue;
            double t = ((const double *)tables[i][P_cf64])[CF_retire];
            if (best < 0 || t < best_t) {
                second = best; second_t = best_t;
                best = i; best_t = t;
            } else if (second < 0 || t < second_t) {
                second = i; second_t = t;
            }
        }
        if (best < 0) return RC_DONE;
        {
            int64_t *ci = (int64_t *)tables[best][P_ci64];
            double *cf = (double *)tables[best][P_cf64];
            int64_t end = CI(n_ops);
            if (stop[best] >= 0 && stop[best] < end) end = stop[best];
            CI(end) = end;
            CI(strict) = second >= 0 && best > second;
            CF(horizon) = second >= 0 ? second_t : DBL_MAX;
        }
        cur = best;
resume:
        {
            long rc = krun(tables[cur]);
            const int64_t *ci = (const int64_t *)tables[cur][P_ci64];
            *who = cur;
            if (rc != RC_DONE) return rc;
            if (CI(note_len) || (stop[cur] >= 0 && CI(pos) >= stop[cur])) return RC_YIELD;
        }
    }
}

/* ---------------------------------------------------------------- kbucket */

long kbucket(long long *si_, double *sf, long long cycle) {
    int64_t *si = (int64_t *)si_;
    mon_advance(si, sf, (int64_t)cycle);
    return (long)mon_instant(si, sf, (int64_t)cycle);
}
"""


def generate_source():
    """The complete C translation unit for the compiled kernel."""
    return _defines() + "\n" + _scheme_defines() + "\n" + _BODY
