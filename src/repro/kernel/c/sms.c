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

    /* Trigger access to a fresh region: _pht_lookup and _replay, then
       _ft_insert. */
    int64_t tag;
    int64_t *row = sms_pht_set(k, sms_signature(pc, offset), &tag);
    int64_t ways = ci[CI_sm_pht_ways];
    for (int64_t w = 0; w < ways; w++) {
        int64_t *r = row + SM_PHT_REC * w;
        if (!r[2] || r[0] != tag) continue;
        r[2] = ++ci[CI_sm_clock];           /* refresh LRU position */
        int64_t lines = ci[CI_sm_off_mask] + 1;
        uint64_t p = (uint64_t)r[1] & ~bit;
        if (lines < 64) p &= (1ull << lines) - 1;
        int64_t base_line = region << (ci[CI_sm_region_shift] - LINE_SHIFT);
        int64_t n = ci[CI_cand_len];
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
