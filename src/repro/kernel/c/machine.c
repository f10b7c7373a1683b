#include <float.h>
#include <stdint.h>

#define CI(n) ci[CI_##n]
#define CF(n) cf[CF_##n]
#define SIG(n) si[SI_##n]
#define SFG(n) sf[SF_##n]

/* One cache level: pointers into the flat slot arrays plus geometry. */
typedef struct {
    int64_t *valid, *line, *pref, *used, *touch, *ready;
    int64_t *tick;
    int64_t ways, set_mask, hit_lat, mode;
} cache_t;

typedef struct {
    int64_t *heap, *len;
    int64_t cap;
} mshr_t;

/* The Python callbacks (pointer-table entries P_train, P_note, P_grow):
   a crossing scheme's train, which writes the lookup's candidates, its
   note hooks, and the growth of BOP's pending-fill ring or a pollution
   log.  train and grow may re-lay arrays, so the caller re-binds. */
typedef void (*train_fn)(int64_t cycle, int64_t pc, int64_t addr, _Bool hit);
typedef void (*note_fn)(_Bool useful, int64_t cycle, int64_t line);
typedef void (*grow_fn)(void);

typedef struct {
    void **P;
    int64_t *ci; double *cf;
    int64_t *si; double *sf;
    cache_t l1, l2, llc;
    mshr_t l1m, l2m, llcm;
    int64_t *bank_open, *bank_nextact, *bank_rowready;
    int64_t *ch_busfree, *ch_demandfree;
    int64_t *infl_line, *infl_ready;
    int64_t *cand_line, *cand_lp;
    /* compiled scheme-training state (dummies unless a twin is listed):
       every table of layout.FAMILIES */
#define TWIN_FIELD(type, name) type *name;
    TWIN_ARRAYS(TWIN_FIELD)
    /* pollution logs, (ordinal, line) pairs (dummies when pl_on == 0) */
    int64_t *pl_dem, *pl_fill, *pl_vic;
    train_fn train;
    note_fn note;
    grow_fn grow;
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
        if (out_vline) {
            *out_vline = c->line[vslot];
            *out_vpref = c->pref[vslot];
            *out_vused = c->used[vslot];
            have_info = 1;
        }
        slot = vslot;
    }
    c->line[slot] = line;
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
    }
    heap_push(m->heap, m->len, completion + wait);
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

static int64_t mon_level(const double *sf, double rate) {
    if (rate >= SFG(mon_thr_hi)) return 3;
    if (rate >= SFG(mon_thr_mid)) return 2;
    if (rate >= SFG(mon_thr_lo)) return 1;
    return 0;
}

static int64_t mon_instant(const int64_t *si, const double *sf, int64_t cycle) {
    return mon_level(sf, mon_rate(si, sf, cycle));
}

/* BandwidthMonitor._advance: each window that ends by cycle is charged
   at its end phase (t = 1: half the counter), then the counter halves. */
static void mon_advance(int64_t *si, double *sf, int64_t cycle) {
    int64_t window = SIG(mon_window_cycles);
    while (cycle >= SIG(mon_window_end)) {
        si[SI_mon_bucket0 + mon_level(sf, SFG(mon_counter) / 2.0)] += window;
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
    if (is_prefetch && bus_free - cycle > SIG(pf_drop_backlog)) return -1;
    int64_t bus_ready;
    if (k->bank_open[bank] == row) {
        int64_t row_wait = k->bank_rowready[bank];
        if (!is_prefetch) {
            int64_t bound = cycle + SIG(dem_preempt_acts);
            if (row_wait > bound) row_wait = bound;
        }
        int64_t cas_start = cycle > row_wait ? cycle : row_wait;
        bus_ready = cas_start + SIG(tCL);
    } else {
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
    if (data_done > SIG(dram_last_data_done)) SIG(dram_last_data_done) = data_done;
    /* BandwidthMonitor.record_cas */
    if (data_start >= SIG(mon_window_end)) mon_advance(si, sf, data_start);
    SFG(mon_counter) += 1.0;
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

/* ------------------------------------------------------- scheme notes */

static void scheme_note(kctx_t *k, int useful, int64_t cycle, int64_t line) {
    /* l2pf_notes is 1 only for a crossing scheme whose note hooks are not
       Prefetcher's inherited no-ops (fdp: wrappers, a composite holding
       one, ...): no compiled twin reads notes. */
    if (k->ci[CI_l2pf_notes] && !k->si[SI_failed]) k->note(useful, cycle, line);
}

static void notify_useful(kctx_t *k, int64_t cycle, int64_t line) {
    c_touch_pf(&k->llc, line);
    c_touch_pf(&k->l2, line);
    scheme_note(k, 1, cycle, line);
}

static void note_use(kctx_t *k, int64_t cycle, int64_t line, int64_t ready) {
    k->ci[CI_pf_useful]++;
    if (ready > cycle) k->ci[CI_pf_late]++;
    notify_useful(k, cycle, line);
}

/* ------------------------------------------------------ pollution logs
   PollutionCollector's three views (observe/sinks.py), recorded where
   ObservedHierarchy emits the events it derives them from.  Before each
   op krun has every log grown to hold a whole op, so an append never
   overflows. */

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
            scheme_note(k, 0, cycle, vline);
        }
        /* POLLUTING: an LLC victim of a prefetch fill */
        if (prefetched && k->ci[CI_pl_on]) pl_push(k->ci, k->pl_vic, CI_pl_vic_len, vline);
    }
}

/* --------------------------------- compiled scheme-training twins
   Line-for-line transliterations of the schemes' train methods (the
   executable specs) against their flat tables, each reading its config
   from its own slots.  Each appends its candidates to the buffer from
   cand_len on, so scheme_train can run a composite's components in
   turn.  Bandwidth-bucket reads happen at exactly the same points as
   the Python (the monitor mutates on every read), and every double op
   keeps CPython's evaluation order. */

static int64_t k_bucket(kctx_t *k, int64_t cycle) {
    /* BandwidthMonitor.bucket: advance, then the 2-bit instant value. */
    mon_advance(k->si, k->sf, cycle);
    return mon_instant(k->si, k->sf, cycle);
}
