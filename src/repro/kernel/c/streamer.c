/* --- Streamer (prefetchers/streamer.py).  tracked_pages and degree from
       the st_ slots.  The page table is a stamped record table
       (layout.ST_REC, capacity tracked_pages): every insert or refresh
       takes a fresh stamp from st_clock, so ascending stamps reproduce
       the dict's LRU order. --- */

static void streamer_train(kctx_t *k, int64_t addr) {
    int64_t *ci = k->ci;
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
    int64_t n = ci[CI_cand_len];
    for (int64_t dist = 1; dist <= degree; dist++) {
        int64_t target = offset + e[2] * dist;
        if (target < 0 || target >= 64) break;
        k->cand_line[n] = line + e[2] * dist;
        k->cand_lp[n] = 0;
        n++;
    }
    ci[CI_cand_len] = n;
}
