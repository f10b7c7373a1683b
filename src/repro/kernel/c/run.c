/* ------------------------------------- MemoryHierarchy._issue_prefetches */

/* Each candidate ends as one of the spec's outcomes, named at its branch;
   only issued ones are counted. */
static void issue_prefetches(kctx_t *k, int64_t cycle) {
    int64_t *ci = k->ci;
    int64_t n = ci[CI_cand_len];
    cache_t *l2 = &k->l2;
    cache_t *llc = &k->llc;
    for (int64_t i = 0; i < n; i++) {
        int64_t line = k->cand_line[i];
        int64_t lp = k->cand_lp[i];
        if (c_find(l2, line) >= 0) continue;                    /* "resident" */
        int64_t ifl = infl_find(k, line);
        if (ifl >= 0) {
            if (k->infl_ready[ifl] > cycle) continue;           /* "inflight" */
            infl_del(k, ifl);
        }
        if (c_find(llc, line) >= 0) {                           /* "llc" */
            ci[CI_pf_issued]++;
            c_fill(l2, line, 1, lp, cycle + llc->hit_lat, 0, 0, 0);
            continue;
        }
        if (ci[CI_inflight_len] >= ci[CI_queue_size]) {
            infl_sweep(k, cycle);
            if (ci[CI_inflight_len] >= ci[CI_queue_size]) continue;  /* "bandwidth" */
        }
        int64_t dl = dram_access(k, cycle, line, 0, 1);
        if (dl < 0) continue;                                   /* "bandwidth" */
        ci[CI_pf_issued]++;                                     /* "dram" */
        int64_t ready = cycle + llc->hit_lat + dl;
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

/* ------------------------------------------------------------- assembly */

/* Point k at the arrays and callbacks of pointer table P; run again
   after a callback that can re-lay an array (train, grow). */
static void bind(kctx_t *k, void **P) {
    k->P = P;
    k->ci = (int64_t *)P[P_ci64];
    k->cf = (double *)P[P_cf64];
    k->si = (int64_t *)P[P_si64];
    k->sf = (double *)P[P_sf64];
    int64_t *ci = k->ci;
    int64_t *si = k->si;

    k->l1.valid = (int64_t *)P[P_l1_valid]; k->l1.line = (int64_t *)P[P_l1_line];
    k->l1.pref = (int64_t *)P[P_l1_pref]; k->l1.used = (int64_t *)P[P_l1_used];
    k->l1.touch = (int64_t *)P[P_l1_touch]; k->l1.ready = (int64_t *)P[P_l1_ready];
    k->l1.tick = &ci[CI_l1_tick];
    k->l1.ways = CI(l1_ways); k->l1.set_mask = CI(l1_set_mask);
    k->l1.hit_lat = CI(l1_hit_latency); k->l1.mode = CI(l1_victim_mode);

    k->l2.valid = (int64_t *)P[P_l2_valid]; k->l2.line = (int64_t *)P[P_l2_line];
    k->l2.pref = (int64_t *)P[P_l2_pref]; k->l2.used = (int64_t *)P[P_l2_used];
    k->l2.touch = (int64_t *)P[P_l2_touch]; k->l2.ready = (int64_t *)P[P_l2_ready];
    k->l2.tick = &ci[CI_l2_tick];
    k->l2.ways = CI(l2_ways); k->l2.set_mask = CI(l2_set_mask);
    k->l2.hit_lat = CI(l2_hit_latency); k->l2.mode = CI(l2_victim_mode);

    k->llc.valid = (int64_t *)P[P_llc_valid]; k->llc.line = (int64_t *)P[P_llc_line];
    k->llc.pref = (int64_t *)P[P_llc_pref]; k->llc.used = (int64_t *)P[P_llc_used];
    k->llc.touch = (int64_t *)P[P_llc_touch]; k->llc.ready = (int64_t *)P[P_llc_ready];
    k->llc.tick = &si[SI_llc_tick];
    k->llc.ways = CI(llc_ways); k->llc.set_mask = CI(llc_set_mask);
    k->llc.hit_lat = CI(llc_hit_latency); k->llc.mode = CI(llc_victim_mode);

    k->l1m.heap = (int64_t *)P[P_mshr_l1]; k->l1m.len = &ci[CI_mshr_l1_len];
    k->l1m.cap = CI(mshr_l1_cap);
    k->l2m.heap = (int64_t *)P[P_mshr_l2]; k->l2m.len = &ci[CI_mshr_l2_len];
    k->l2m.cap = CI(mshr_l2_cap);
    k->llcm.heap = (int64_t *)P[P_mshr_llc]; k->llcm.len = &ci[CI_mshr_llc_len];
    k->llcm.cap = CI(mshr_llc_cap);

    k->bank_open = (int64_t *)P[P_bank_open];
    k->bank_nextact = (int64_t *)P[P_bank_nextact];
    k->bank_rowready = (int64_t *)P[P_bank_rowready];
    k->ch_busfree = (int64_t *)P[P_ch_busfree];
    k->ch_demandfree = (int64_t *)P[P_ch_demandfree];
    k->infl_line = (int64_t *)P[P_infl_line];
    k->infl_ready = (int64_t *)P[P_infl_ready];
    k->cand_line = (int64_t *)P[P_cand_line];
    k->cand_lp = (int64_t *)P[P_cand_lp];

#define TWIN_BIND(type, name) k->name = (type *)P[P_##name];
    TWIN_ARRAYS(TWIN_BIND)
    k->pl_dem = (int64_t *)P[P_pl_dem];
    k->pl_fill = (int64_t *)P[P_pl_fill];
    k->pl_vic = (int64_t *)P[P_pl_vic];
    k->train = (train_fn)P[P_train];
    k->note = (note_fn)P[P_note];
    k->grow = (grow_fn)P[P_grow];
}

/* --------------------------------------------- MemoryHierarchy._below_l1 */

/* The demand path below the L1 (once per L1 miss): the L2, then an
   in-flight prefetch to merge with, then the LLC, then DRAM.  The L2
   scheme trains between the L2 lookup and the rest, in C for a twinned
   scheme, else through the train callback.  Returns the latency and sets
   *level. */
static int64_t below_l1(kctx_t *k, int64_t cycle, int64_t pc, int64_t addr,
                        int64_t is_write, int64_t *level) {
    int64_t *ci = k->ci;
    int64_t line = addr >> LINE_SHIFT;
    cache_t *l2 = &k->l2;
    int64_t tick = ++(*l2->tick);
    int64_t slot = c_find(l2, line);
    int64_t first_use = 0;
    if (slot < 0) ci[CI_l2_demand_misses]++;
    else {
        l2->touch[slot] = tick;
        if (l2->pref[slot] && !l2->used[slot]) {
            first_use = 1;
            l2->used[slot] = 1;
        }
    }
    if (ci[CI_has_l2pf]) {
        if (ci[CI_scheme_len]) scheme_train(k, cycle, pc, addr);
        else if (!k->si[SI_failed]) {
            k->train(cycle, pc, addr, slot >= 0);
            bind(k, k->P);
        }
    }
    int64_t ncand = ci[CI_cand_len];
    int64_t merge_bound = ci[CI_merge_bound];
    if (slot >= 0) {
        if (first_use) note_use(k, cycle, line, l2->ready[slot]);
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
    if (ls >= 0) {
        llc->touch[ls] = ltick;
        if (llc->pref[ls] && !llc->used[ls]) {
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

/* ------------------------------------------------------------------ krun */

/* CoreExecution.run_ops_until over pointer table P: run ops from pos
   until end (an exclusive op index), or until retirement passes the
   horizon (reaches it, when strict), or a Python callback has raised. */
static void krun(void **P, int64_t end, int64_t strict, double horizon) {
    kctx_t k;
    bind(&k, P);
    int64_t *ci = k.ci;
    double *cf = k.cf;
    const int64_t *si = k.si;
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

    /* core state and constants */
    int64_t pos = CI(pos);
    int64_t width = CI(width);
    double width_d = (double)width;
    int64_t rob_size = CI(rob_size);
    double retire_step = CF(retire_step);
    int64_t instr = CI(instr);
    double retire = CF(retire);
    double last_load_done = CF(last_load_done);
    int64_t has_l1pf = CI(has_l1pf);
    int64_t s_mask = CI(stride_mask);
    int64_t s_cthr = CI(stride_conf_threshold);
    int64_t s_cmax = CI(stride_conf_max);
    int64_t s_degree = CI(stride_degree);
    /* Below-L1 lookups the next op can make: its demand access and each
       stride prefetch.  A packed BOP pending-fill ring (bp_pend_cap > 0)
       must hold one more entry per lookup (each trains); each pollution
       log must hold what the op can append: one pair per lookup, and per
       lookup a fill and a victim per candidate (KernelState._log_room). */
    int64_t lookups = 1 + (has_l1pf ? s_degree : 0);
    int64_t bop_room = CI(bp_pend_cap) ? lookups : 0;
    int64_t rec = CI(pl_on);

    while (pos < end && !SIG(failed)) {
        if (retire > horizon || (strict && retire == horizon)) break;
        if ((bop_room && CI(bp_pend_len) + bop_room > CI(bp_pend_cap))
            || (rec && (CI(pl_dem_len) + lookups > CI(pl_dem_cap)
                        || CI(pl_fill_len) + lookups * CI(cand_cap) > CI(pl_fill_cap)
                        || CI(pl_vic_len) + lookups * CI(cand_cap) > CI(pl_vic_cap)))) {
            /* KernelState.grow re-lays what is short; then check again */
            k.grow();
            bind(&k, P);
            continue;
        }
        int64_t gap = op_gap[pos];
        int64_t pc = op_pc[pos];
        int64_t addr = op_addr[pos];
        int64_t is_write = op_write[pos];
        int64_t dep = op_dep[pos];
        pos++;
        if (gap) {
            instr += gap;
            retire += (double)gap / width_d;
        }
        int64_t idx = instr;
        instr++;
        int64_t rob_idx = idx - rob_size;
        double enter;
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
        int64_t cycle = (int64_t)enter;
        CI(demand_accesses)++;
        int64_t line = addr >> LINE_SHIFT;
        int64_t t1 = ++(*k.l1.tick);
        int64_t l1_slot = c_find(&k.l1, line);
        if (l1_slot >= 0) {
            k.l1.touch[l1_slot] = t1;
            if (k.l1.pref[l1_slot] && !k.l1.used[l1_slot]) k.l1.used[l1_slot] = 1;
        }

        /* PcStridePrefetcher.train */
        int64_t pf_n = 0;
        if (has_l1pf) {
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

        /* _issue_l1_prefetch for each stride candidate */
        int64_t latency, lvl;
        for (int64_t i = 0; i < pf_n; i++) {
            int64_t cand = pf_buf[i];
            if (c_find(&k.l1, cand) >= 0) continue;
            mshr_drain(&k.l1m, cycle);
            if (*k.l1m.len >= k.l1m.cap) continue;
            latency = below_l1(&k, cycle, pc, cand << LINE_SHIFT, 0, &lvl);
            if (rec) pl_push(ci, k.pl_dem, CI_pl_dem_len, cand);
            mshr_allocate(&k.l1m, cycle, cycle + latency);
            c_fill(&k.l1, cand, 1, 0, cycle + latency, 0, 0, 0);
        }

        /* demand completion (read the slot *after* prefetch issues: a
           fill that recycled this slot is visible, like the object
           path's recycled CacheLine) */
        if (l1_slot >= 0) {
            int64_t rdy = k.l1.ready[l1_slot];
            latency = k.l1.hit_lat + (rdy > cycle ? rdy - cycle : 0);
            lvl = 0;
        } else {
            latency = below_l1(&k, cycle, pc, addr, is_write, &lvl);
            if (rec) pl_push(ci, k.pl_dem, CI_pl_dem_len, line);
            latency += mshr_allocate(&k.l1m, cycle, cycle + latency);
            c_fill(&k.l1, line, 0, 0, cycle + latency, 0, 0, 0);
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

    CI(pos) = pos;
    CI(instr) = instr;
    CF(retire) = retire;
    CF(last_load_done) = last_load_done;
}

/* ---------------------------------------------------------------- ksched */

typedef void (*stop_fn)(int64_t core);

/* interleave_two_level (cpu/core.py) over the cores' pointer tables: run
   the minimum-(retire, core) core through krun, whose arguments bound the
   batch, until its retirement time passes the second-smallest entry
   (DBL_MAX for a lone core; strict when that entry's core index is
   smaller) or it reaches stop[core], its pending warmup checkpoint, where
   on_stop(core) runs (if given) and stop[core] becomes -1; then
   re-select.  Returns RC_DONE once every core is done, or RC_ERROR once a
   Python callback has raised (slot failed). */
long ksched(void ***tables, long n_cores, long long *stop, stop_fn on_stop) {
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
        const int64_t *ci = (const int64_t *)tables[best][P_ci64];
        const int64_t *si = (const int64_t *)tables[best][P_si64];
        int64_t end = CI(n_ops);
        if (stop[best] >= 0 && stop[best] < end) end = stop[best];
        krun(tables[best], end, second >= 0 && best > second,
             second >= 0 ? second_t : DBL_MAX);
        if (!SIG(failed) && stop[best] >= 0 && CI(pos) >= stop[best]) {
            stop[best] = -1;
            if (on_stop) on_stop(best);
        }
        if (SIG(failed)) return RC_ERROR;
    }
}

/* ---------------------------------------------------------------- kbucket */

long kbucket(long long *si_, double *sf, long long cycle) {
    int64_t *si = (int64_t *)si_;
    mon_advance(si, sf, (int64_t)cycle);
    return (long)mon_instant(si, sf, (int64_t)cycle);
}
