/* --- DSPatch (core/dspatch.py) at the compressed geometry: 32-bit
       patterns, 16-bit halves, one stored bit per 128B line pair.  Every
       other DSPatchConfig value is read from the dp_ slots. --- */

/* fold_xor_hash down to `bits` bits (1..63, the gate's bound). */
static int64_t dp_fold(int64_t pc, int64_t bits) {
    uint64_t v = (uint64_t)pc;
    uint64_t mask = (1ull << bits) - 1, out = 0;
    while (v) { out ^= v & mask; v >>= bits; }
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
   AccP); allow_reset is the dp_covp_reset slot. */
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
    if (k->ci[CI_dp_covp_reset] && k->dp_spt_mcov[m] >= DP_CMAX
        && (bw_bucket == 3 || coverage_bad)) {
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
        uint32_t p = program;
        if (k->ci[CI_dp_anchored]) p = dp_rotr32(program, trig_off[segment] >> 1);
        int64_t e = trig_sig[segment] & k->ci[CI_dp_spt_mask];
        int64_t nhalves = segment == 0 ? 2 : 1;
        for (int64_t half = 0; half < nhalves; half++)
            dp_update_half(k, e, half, (int64_t)((p >> (half * 16)) & 0xFFFF),
                           bw_bucket);
    }
}

/* DSPatch._predict + _expand: Figure 10's selection per half (one
   bucket read per half, as the Python does; AlwaysCovP reads none and
   selects as at bucket 0, ModCovP suppresses every AccP choice), then
   rotate to the trigger and expand each compressed bit to its line
   pair, skipping the trigger line. */
static int64_t dp_predict(kctx_t *k, int64_t cycle, int64_t sig,
                          int64_t page, int64_t trig_off, int64_t segment) {
    int64_t *ci = k->ci;
    int64_t e = sig & ci[CI_dp_spt_mask];
    int64_t selection = ci[CI_dp_selection];
    int64_t nhalves = segment == 0 ? 2 : 1;
    uint32_t p = 0;
    int64_t low_priority = 0;
    for (int64_t half = 0; half < nhalves; half++) {
        int64_t m = 2 * e + half;
        int64_t bucket = selection == DP_SEL_COVP ? 0 : k_bucket(k, cycle);
        int cov_sat = k->dp_spt_mcov[m] >= DP_CMAX;
        int64_t chunk;
        if (bucket == 3 || (bucket == 2 && cov_sat)) {
            if (selection == DP_SEL_MODCOVP
                || (bucket == 3 && k->dp_spt_macc[m] >= DP_CMAX)) {
                ci[CI_dp_pred_supp]++;
                continue;
            }
            chunk = (k->dp_spt_acc[e] >> (half * 16)) & 0xFFFF;
            ci[CI_dp_pred_accp]++;
        } else {
            chunk = (k->dp_spt_cov[e] >> (half * 16)) & 0xFFFF;
            ci[CI_dp_pred_covp]++;
            if (bucket < 2 && cov_sat) low_priority = 1;   /* COV_LOW */
        }
        p |= (uint32_t)chunk << (half * 16);
    }
    int64_t base = ci[CI_cand_len], n = base, maxc = ci[CI_dp_maxc];
    if (!p) return n;
    if (ci[CI_dp_anchored]) p = dp_rotl32(p, trig_off >> 1);
    int64_t base_line = page << PG_SHIFT;
    while (p) {
        int64_t first_line = (int64_t)__builtin_ctz(p) << 1;
        p &= p - 1;
        for (int64_t lo = first_line; lo < first_line + 2; lo++) {
            if (lo == trig_off) continue;
            k->cand_line[n] = base_line + lo;
            k->cand_lp[n] = low_priority;
            n++;
            if (n - base >= maxc) return n;
        }
    }
    return n;
}

/* DSPatch.train: PB LRU scan over packed arrays (index 0 = oldest,
   matching dict insertion order), insert-then-learn on eviction, then
   the segment trigger and the pattern-bit record. */
static void dp_train(kctx_t *k, int64_t cycle, int64_t pc, int64_t addr) {
    int64_t *ci = k->ci;
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
        if (len >= ci[CI_dp_pb_cap]) {
            ev_pat = k->dp_pb_pattern[0];
            ev_sig[0] = k->dp_pb_trig_sig[0];
            ev_sig[1] = k->dp_pb_trig_sig[1];
            ev_off[0] = k->dp_pb_trig_off[0];
            ev_off[1] = k->dp_pb_trig_off[1];
            evicted = 1;
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
    if (k->dp_pb_trig_sig[2 * slot + segment] < 0
        && (segment == 0 || ci[CI_dp_seg1_trigger])) {
        int64_t signature = dp_fold(pc, ci[CI_dp_sig_bits]);
        k->dp_pb_trig_sig[2 * slot + segment] = signature;
        k->dp_pb_trig_off[2 * slot + segment] = line_off;
        ci[CI_cand_len] = dp_predict(k, cycle, signature, page, line_off, segment);
    }
    k->dp_pb_pattern[slot] |= 1ull << line_off;
}
