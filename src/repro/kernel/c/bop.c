/* --- BOP / eBOP (prefetchers/bop.py).  Every BopConfig value is read
       from the bp_ slots and the offset list from bp_offsets, so one twin
       serves any config with unique offsets.  The RR table, the score
       table (offset-list order) and the ranked active offsets are flat
       arrays; _pending_fills is a ring of (ready, line) pairs that krun
       has grown (the grow callback) to hold each op's trainings. --- */

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
}

static void bop_train(kctx_t *k, int64_t sk, int64_t cycle, int64_t addr) {
    int64_t *ci = k->ci;
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
    int64_t n = ci[CI_cand_len];
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
