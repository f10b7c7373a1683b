/* --- SPP / eSPP (prefetchers/spp.py).  Every SppConfig value is read
       from the sp_ slots, the three thresholds from CF64. --- */

static int64_t spp_advance_sig(int64_t sig, int64_t delta) {
    int64_t mag = (delta >= 0 ? delta : -delta) & 0x3F;
    if (delta < 0) mag |= 0x40;
    return ((sig << 3) ^ mag) & 0xFFF;
}

static void spp_ghr_insert(kctx_t *k, int64_t sig, double conf,
                           int64_t loff, int64_t delta) {
    int64_t len = k->ci[CI_sp_ghr_len];
    if (len < k->ci[CI_sp_ghr_cap]) len++;
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
    const int64_t *ci = k->ci;
    int64_t slots = ci[CI_sp_slots], cmax = ci[CI_sp_cmax];
    int64_t idx = (sig ^ (sig >> 6)) & ci[CI_sp_pt_mask];
    int64_t *dl = k->sp_pt_delta + idx * slots;
    int64_t *cl = k->sp_pt_cdelta + idx * slots;
    int64_t c_sig = k->sp_pt_csig[idx];
    if (c_sig >= cmax) {
        c_sig >>= 1;
        for (int64_t i = 0; i < slots; i++) cl[i] >>= 1;
    }
    k->sp_pt_csig[idx] = c_sig + 1;
    int64_t victim = 0, victim_count = -1;
    for (int64_t i = 0; i < slots; i++) {
        if (dl[i] == delta) {
            int64_t count = cl[i] + 1;
            cl[i] = count < cmax ? count : cmax;
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
    if (sk == SCHEME_ESPP && k_bucket(k, cycle) <= 1) return k->cf[CF_sp_thr_relax];
    return k->cf[CF_sp_thr_pf];
}

static void spp_train(kctx_t *k, int64_t sk, int64_t cycle, int64_t addr) {
    int64_t *ci = k->ci;
    int64_t page = addr >> (LINE_SHIFT + PG_SHIFT);
    int64_t offset = (addr >> LINE_SHIFT) & 63;
    int64_t sidx = page & ci[CI_sp_st_mask];
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
    double la_threshold = k->cf[CF_sp_thr_la];
    int64_t pt_mask = ci[CI_sp_pt_mask], slots = ci[CI_sp_slots];
    int64_t flt_mask = ci[CI_sp_flt_mask], maxc = ci[CI_sp_maxc];
    int64_t max_depth = ci[CI_sp_depth];
    int64_t page_base = page << PG_SHIFT;
    uint64_t seen = 1ull << offset;   /* in-page lines as an offset bitmap */
    double confidence = 1.0;
    int64_t off = offset;
    int64_t base = ci[CI_cand_len], n_cands = 0;
    for (int64_t depth = 0; depth < max_depth; depth++) {
        int64_t idx = (signature ^ (signature >> 6)) & pt_mask;
        int64_t c_sig = k->sp_pt_csig[idx];
        if (c_sig == 0) break;
        int64_t *dl = k->sp_pt_delta + idx * slots;
        int64_t *cl = k->sp_pt_cdelta + idx * slots;
        double best_conf = 0.0;
        int64_t best_delta = 0;
        for (int64_t s = 0; s < slots; s++) {
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
                    /* the prefetch filter */
                    int64_t fidx = (line ^ (line >> 10)) & flt_mask;
                    if (k->sp_flt[fidx] != line) {
                        k->sp_flt[fidx] = line;
                        seen |= 1ull << target;
                        k->cand_line[base + n_cands] = line;
                        k->cand_lp[base + n_cands] = 0;
                        n_cands++;
                    }
                }
            } else {
                /* crossing the page: remember for cross-page bootstrap */
                spp_ghr_insert(k, signature, conf, off, delta);
            }
            if (n_cands >= maxc) {
                ci[CI_cand_len] = base + n_cands;
                return;
            }
        }
        if (best_delta == 0 || best_conf < la_threshold) break;
        int64_t next_off = off + best_delta;
        if (next_off < 0 || next_off >= 64) break;
        signature = spp_advance_sig(signature, best_delta);
        off = next_off;
        confidence = best_conf;
    }
    ci[CI_cand_len] = base + n_cands;
}
