/* CompositePrefetcher.train's merge: earlier components take precedence,
   so the candidates a component appended from `base` on drop each line an
   earlier one emitted, keeping their order (no twin repeats a line within
   its own list). */
static void cand_merge(kctx_t *k, int64_t base) {
    int64_t n = base;
    for (int64_t i = base; i < k->ci[CI_cand_len]; i++) {
        int64_t line = k->cand_line[i];
        int64_t j = 0;
        while (j < base && k->cand_line[j] != line) j++;
        if (j < base) continue;
        k->cand_line[n] = line;
        k->cand_lp[n] = k->cand_lp[i];
        n++;
    }
    k->ci[CI_cand_len] = n;
}

/* The twinned scheme's train: its listed components (one for a plain
   scheme) in arbitration order, each appending to the candidates. */
static void scheme_train(kctx_t *k, int64_t cycle, int64_t pc, int64_t addr) {
    int64_t *ci = k->ci;
    ci[CI_cand_len] = 0;
    for (int64_t c = 0; c < ci[CI_scheme_len]; c++) {
        int64_t sk = ci[CI_scheme_0 + c];
        int64_t base = ci[CI_cand_len];
        switch (sk) {
        case SCHEME_SPP: case SCHEME_ESPP: spp_train(k, sk, cycle, addr); break;
        case SCHEME_DSPATCH: dp_train(k, cycle, pc, addr); break;
        case SCHEME_BOP: case SCHEME_EBOP: bop_train(k, sk, cycle, addr); break;
        case SCHEME_SMS: sms_train(k, pc, addr); break;
        case SCHEME_STREAMER: streamer_train(k, addr); break;
        }
        cand_merge(k, base);
    }
}
