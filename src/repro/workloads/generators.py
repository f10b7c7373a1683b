"""Trace-generation primitives (array-native).

Each ``emit_*`` function appends roughly ``n`` memory operations with one
characteristic access structure to a :class:`GenContext`.  Category builders
in :mod:`repro.workloads.catalog` compose these primitives into the 75
workloads.

The pipeline is array-native end-to-end: every primitive computes its
gaps/pcs/addresses/flags as whole NumPy arrays — batched RNG draws,
cumulative-sum and modular index arithmetic, segment tricks for
variable-size visits — and bulk-appends them through
:meth:`GenContext.emit_block` / ``TraceBuilder.extend_arrays``.  Nothing
on the O(n) path runs a per-op Python loop; the only scalar loops left
are bounded by small structural parameters (stream counts, layout
counts), not by trace length.

RNG-stream policy: all randomness flows through the context's seeded
generator, drawn in **batches** (one draw call per decision kind per
chunk, in a fixed documented order), so every workload is reproducible
from its name alone — in-process and across processes.  Batched draws
consume the seeded stream in a different order than the retired scalar
loops did, so traces differ from pre-vectorization ones while keeping
the same access structure; the engine's source-code salt invalidates
results cached from earlier traces automatically (see
``docs/workloads.md``).
"""

import numpy as np

from repro.constants import LINE_SHIFT, LINES_PER_PAGE, PAGE_SHIFT
from repro.cpu.trace import FLAG_DEP, FLAG_WRITE, TraceBuilder

#: Gap (non-memory instructions between memory ops) ranges per intensity.
#:
#: Calibrated so a memory-intensive single-thread baseline uses roughly
#: 20-40% of one DDR4-2133 channel — the paper's premise (Section 1) is
#: that single-thread workloads leave DRAM bandwidth headroom, which is
#: what bandwidth-adaptive prefetching spends.  Prefetching then pushes
#: utilization into the upper quartiles, exercising DSPatch's selection.
INTENSITY_GAPS = {
    "high": (60, 160),
    "medium": (160, 400),
    "low": (400, 1000),
}

#: Page number -> line address shift (4KB page over 64B lines).
_PAGE_LINE_SHIFT = PAGE_SHIFT - LINE_SHIFT


class GenContext:
    """Shared state for one workload's generation run."""

    def __init__(self, seed, intensity="high"):
        if intensity not in INTENSITY_GAPS:
            known = ", ".join(sorted(INTENSITY_GAPS))
            raise ValueError(f"unknown intensity {intensity!r} (known: {known})")
        self.rng = np.random.default_rng(seed)
        self.builder = TraceBuilder()
        self.intensity = intensity
        self._page_cursor = 0x100  # leave low pages unused
        self._pc_cursor = 0x400000

    # -- resources -------------------------------------------------------------

    def alloc_pages(self, count):
        """Reserve ``count`` contiguous 4KB pages; returns the base page."""
        base = self._page_cursor
        # Pad each reservation so unrelated structures never share a page and
        # set-index aliasing between them is incidental, not systematic.
        self._page_cursor += count + 16
        return base

    def alloc_pages_batch(self, counts):
        """Reserve several page runs at once; returns their base pages.

        Equivalent to ``[alloc_pages(c) for c in counts]`` without the
        per-run Python loop.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.size == 0:
            return counts
        spans = counts + 16
        bases = self._page_cursor + np.concatenate(
            ([0], np.cumsum(spans[:-1]))
        )
        self._page_cursor += int(spans.sum())
        return bases

    def alloc_pc(self):
        """Return a fresh, unique program-counter value."""
        pc = self._pc_cursor
        self._pc_cursor += 4
        return pc

    def alloc_pcs(self, count):
        """Return ``count`` fresh program counters as one array."""
        pcs = self._pc_cursor + 4 * np.arange(count, dtype=np.int64)
        self._pc_cursor += 4 * count
        return pcs

    # -- emission helpers ----------------------------------------------------------

    def gap(self):
        """Sample one instruction gap for this workload's intensity."""
        lo, hi = INTENSITY_GAPS[self.intensity]
        return int(self.rng.integers(lo, hi + 1))

    def gaps(self, n):
        """Sample ``n`` instruction gaps in one batched draw."""
        lo, hi = INTENSITY_GAPS[self.intensity]
        return self.rng.integers(lo, hi + 1, n)

    def emit(self, pc, page, line_offset, write=False, dep=False, gap=None):
        """Append one access to line ``line_offset`` of ``page``."""
        addr = (page << PAGE_SHIFT) | (line_offset << 6)
        self.builder.append(self.gap() if gap is None else gap, pc, addr, write, dep)

    def emit_block(self, pcs, lines, writes=None, deps=None, gaps=None):
        """Bulk-append accesses to absolute line addresses.

        ``pcs`` may be a scalar (one PC for the whole block) or a per-op
        array; ``writes``/``deps`` likewise (default all-False); ``gaps``
        defaults to one batched intensity draw.  This is the single
        funnel every vectorized primitive emits through.
        """
        lines = np.asarray(lines, dtype=np.int64)
        n = lines.size
        if n == 0:
            return
        if gaps is None:
            gaps = self.gaps(n)
        pcs = np.asarray(pcs, dtype=np.int64)
        if pcs.ndim == 0:
            pcs = np.broadcast_to(pcs, (n,))
        flags = None
        if writes is not None or deps is not None:
            flags = np.zeros(n, dtype=np.uint8)
            if writes is not None:
                flags |= np.asarray(writes, dtype=bool).astype(np.uint8) * FLAG_WRITE
            if deps is not None:
                flags |= np.asarray(deps, dtype=bool).astype(np.uint8) * FLAG_DEP
        self.builder.extend_arrays(gaps, pcs, lines << LINE_SHIFT, flags)

    def build(self):
        return self.builder.build()


def bounded_zipf(rng, n_items, alpha, size):
    """Sample ``size`` ranks in [0, n_items) with a Zipf(alpha) law."""
    ranks = np.arange(1, n_items + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    cumulative = np.cumsum(weights)
    cumulative /= cumulative[-1]
    return np.searchsorted(cumulative, rng.random(size))


def _segments(sizes):
    """Per-op ``(segment_id, within_segment)`` indices for variable-size visits.

    The standard cumulative-sum trick: a visit of size ``s`` contributes
    ``s`` ops whose ``within`` runs 0..s-1, with no Python loop.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    total = int(sizes.sum())
    seg_id = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
    within = np.arange(total, dtype=np.int64) - np.repeat(starts, sizes)
    return seg_id, within


def _local_order(rng, seg_id, within, window, keep_first=True):
    """Permutation reordering ops locally *inside* each visit segment.

    Jitter-key sort: each op's key is its in-segment position plus a
    uniform draw in [0, window), so ops more than ``window`` apart can
    never swap — the same bounded-displacement property as the retired
    buffer-based shuffle.  With ``keep_first`` the segment's first op
    (the trigger) is pinned in place.
    """
    keys = within + rng.random(within.size) * window
    if keep_first:
        keys = np.where(within == 0, -1.0, keys)
    return np.lexsort((keys, seg_id))


# --------------------------------------------------------------------------- #
# Regular patterns: streams, strides, stencils (HPC / FSPEC shapes)
# --------------------------------------------------------------------------- #


def emit_streams(ctx, n, num_streams=4, stride=1, pages_per_stream=64, write_frac=0.1):
    """Interleaved sequential streams — the classic HPC/SPEC-FP shape.

    Local deltas are almost all ``+stride``; SPP and every stream detector
    excel here, and the dense traffic saturates DRAM bandwidth.
    """
    bases = ctx.alloc_pages_batch(
        np.full(num_streams, pages_per_stream)
    ) << _PAGE_LINE_SHIFT
    pcs = ctx.alloc_pcs(num_streams)
    # Arrays are not page-phase-aligned in real programs: stagger the
    # streams so their page-boundary crossings (and therefore the spatial
    # prefetchers' trigger bursts) do not synchronize.
    positions = ctx.rng.integers(0, LINES_PER_PAGE, num_streams)
    limit = pages_per_stream * LINES_PER_PAGE
    idx = np.arange(n, dtype=np.int64)
    s = idx % num_streams  # op i belongs to stream i mod k, as before
    t = idx // num_streams  # per-stream step count
    lines = bases[s] + (positions[s] + t * stride) % limit
    writes = ctx.rng.random(n) < write_frac
    ctx.emit_block(pcs[s], lines, writes=writes)


def emit_strided(ctx, n, stride_lines=4, pages=128):
    """A single strided walker (e.g. column-major array traversal)."""
    base = ctx.alloc_pages(pages) << _PAGE_LINE_SHIFT
    pc = ctx.alloc_pc()
    limit = pages * LINES_PER_PAGE
    lines = base + (np.arange(n, dtype=np.int64) * stride_lines) % limit
    ctx.emit_block(pc, lines)


def emit_stencil(ctx, n, arrays=3, pages_per_array=64):
    """Stencil sweep: each iteration touches neighbours across arrays.

    Produces short repeating delta cycles (e.g. +big, -big+1, ...) that SPP
    learns after warm-up, and dense page patterns that bit-pattern
    prefetchers also capture.
    """
    bases = ctx.alloc_pages_batch(
        np.full(arrays, pages_per_array)
    ) << _PAGE_LINE_SHIFT
    pcs = ctx.alloc_pcs(arrays * 3)
    limit = pages_per_array * LINES_PER_PAGE - 2
    # One iteration emits (array, offset) pairs in a fixed nested order;
    # the whole sweep is the outer sum of the iteration index (1..limit-1,
    # wrapping) and that constant block.
    block = (bases[:, None] + np.array([-1, 0, 1])[None, :]).ravel()
    per_iter = arrays * 3
    iters = -(-n // per_iter)
    i_vals = 1 + np.arange(iters, dtype=np.int64) % (limit - 1)
    lines = (i_vals[:, None] + block[None, :]).ravel()[:n]
    ctx.emit_block(np.tile(pcs, iters)[:n], lines)


# --------------------------------------------------------------------------- #
# Spatial-layout patterns (ISPEC17 / Cloud / SYSmark shapes)
# --------------------------------------------------------------------------- #


def window_reorder(rng, items, window=6):
    """Shuffle ``items`` locally within a sliding window (vectorized).

    Models out-of-order-core reordering: accesses move around within an
    instruction-window-sized neighbourhood but the overall progression is
    preserved.  This is exactly the reordering of Figure 2's streams B-E:
    same footprint, same trigger, different local order.  Implemented as
    a jitter-key sort — key = position + U[0, window) — so two items more
    than ``window`` apart can never swap and displacement stays bounded,
    while full-trace permutation (far harsher than any real ROB) remains
    impossible by construction.  This is the whole-array form of the
    same jitter-key sort :func:`_local_order` applies per visit segment.
    """
    items = np.asarray(items)
    n = items.size
    if n <= 1 or window <= 1:
        return items.copy()
    order = _local_order(
        rng,
        np.zeros(n, dtype=np.int64),
        np.arange(n, dtype=np.int64),
        window,
        keep_first=False,
    )
    return items[order]


def _random_layout(rng, density, cluster=True):
    """One page layout: a sorted array of line offsets, optionally in 128B pairs.

    ``cluster=True`` biases toward adjacent pairs, which keeps the paper's
    observation that +1/-1 deltas dominate (Figure 11a) and that
    128B-granularity compression is usually harmless (Figure 11b).  Draws
    are batched and deduplicated in arrival order (the batched analogue of
    the retired add-until-full set loop), keeping the first ``count``
    distinct offsets so the requested density is respected.
    """
    count = max(2, int(density * LINES_PER_PAGE))
    draws = None
    while True:
        fresh = rng.integers(0, LINES_PER_PAGE, 4 * count)
        if cluster:
            # Structures larger than one line span adjacent 64B lines,
            # which is where Figure 11a's +1-delta dominance (and the
            # viability of 128B compression) comes from.
            paired = np.empty(fresh.size * 2, dtype=np.int64)
            paired[0::2] = fresh
            paired[1::2] = np.minimum(fresh + 1, LINES_PER_PAGE - 1)
            fresh = paired
        draws = fresh if draws is None else np.concatenate([draws, fresh])
        uniq, first_idx = np.unique(draws, return_index=True)
        if uniq.size >= count:
            break
    arrival_order = draws[np.sort(first_idx)][:count]
    return np.sort(arrival_order)


def emit_spatial_layouts(
    ctx,
    n,
    num_layouts=8,
    density=0.25,
    pages=1024,
    reorder=True,
    trigger_jitter=False,
    cluster=True,
    layout_zipf=0.0,
    pc_variants=1,
):
    """Recurring per-page spatial layouts, visited with temporal reordering.

    This is the access structure of Figure 2: the same spatial footprint
    reached through different temporal orders.  Reordering destroys SPP's
    local-delta signatures while anchored bit-patterns (DSPatch) and
    absolute patterns (SMS) survive.  With ``trigger_jitter`` the layout
    additionally lands at a rotated position within each page — only
    *anchored* patterns survive that (DSPatch wins over SMS).

    ``pc_variants`` models multiple call sites reaching the same layout
    (inlined accessors, loop copies): each visit triggers from one of
    several PCs.  SMS must learn one PHT entry per (PC, offset) signature,
    so variants multiply its storage pressure (the Figure 5 effect), while
    DSPatch's PC-only folded signature and SPP's PC-free deltas are
    insensitive to it.
    """
    rng = ctx.rng
    layouts = [_random_layout(rng, density, cluster) for _ in range(num_layouts)]
    sizes = np.array([layout.size for layout in layouts], dtype=np.int64)
    flat = np.concatenate(layouts)
    layout_starts = np.concatenate(([0], np.cumsum(sizes[:-1])))
    trigger_pc_table = np.stack([ctx.alloc_pcs(pc_variants) for _ in range(num_layouts)])
    body_pcs = ctx.alloc_pcs(num_layouts)
    base_page = ctx.alloc_pages(pages)
    # Allocators place structures at a handful of recurring 128B-aligned
    # positions per layout (a palette), not uniformly at random: the same
    # (PC, offset) signatures recur — so a large PHT *can* hold them all —
    # while their count (layouts x variants x palette) overflows small
    # signature storage.  Anchored patterns are invariant to the shift.
    jitter_palette = 2 * rng.integers(0, LINES_PER_PAGE // 2, (num_layouts, 8))
    mean_size = float(sizes.mean())
    emitted = 0
    visit = 0
    while emitted < n:
        v = max(16, int((n - emitted) / mean_size) + 2)
        page_draw = rng.integers(0, pages, v)
        if layout_zipf > 0:
            lidx = bounded_zipf(rng, num_layouts, layout_zipf, v)
        else:
            lidx = (visit + np.arange(v)) % num_layouts
        visit += v
        if trigger_jitter:
            shifts = jitter_palette[lidx, rng.integers(0, 8, v)]
        else:
            shifts = np.zeros(v, dtype=np.int64)
        if pc_variants > 1:
            variants = rng.integers(0, pc_variants, v)
        else:
            variants = np.zeros(v, dtype=np.int64)
        vsizes = sizes[lidx]
        seg_id, within = _segments(vsizes)
        offs = flat[layout_starts[lidx][seg_id] + within]
        offs = (offs + shifts[seg_id]) % LINES_PER_PAGE
        if reorder:
            # A wide window: the OOO core plus cache-miss completion order
            # scramble a burst's non-trigger accesses heavily (Figure 2's
            # premise) while the trigger itself stays first.
            offs = offs[_local_order(rng, seg_id, within, window=12)]
        pcs = np.where(
            within == 0,
            trigger_pc_table[lidx, variants][seg_id],
            body_pcs[lidx][seg_id],
        )
        lines = ((base_page + page_draw)[seg_id] << _PAGE_LINE_SHIFT) + offs
        take = min(n - emitted, lines.size)
        ctx.emit_block(pcs[:take], lines[:take])
        emitted += take


def emit_code_heavy(
    ctx, n, num_contexts=3000, density=0.15, pages=512, accesses_per_visit=None
):
    """Thousands of distinct trigger PCs, each with its own small layout.

    Models the enormous code footprints of TPC-C-style server workloads
    ("more than 4000 trigger PCs per kilo instructions") where only SMS's
    16K-entry PHT retains enough signatures; 256-entry tables thrash.
    Layouts are derived from the context id through a vectorized integer
    hash (the batched analogue of the retired per-context derived RNG), so
    the virtual table of thousands of layouts never materializes.
    """
    rng = ctx.rng
    count = max(2, int(density * LINES_PER_PAGE))
    base_page = ctx.alloc_pages(pages)
    pc_base = ctx.alloc_pc()
    slot_mix = (np.arange(count, dtype=np.uint64) + np.uint64(1)) * np.uint64(
        2246822519
    )
    emitted = 0
    while emitted < n:
        v = max(16, (n - emitted) // count + 2)
        contexts = rng.integers(0, num_contexts, v)
        page_draw = rng.integers(0, pages, v)
        # splitmix-style per-(context, slot) hash -> offsets in [0, 64).
        h = contexts.astype(np.uint64)[:, None] * np.uint64(2654435761)
        h = h + slot_mix[None, :] + np.uint64(13)
        h ^= h >> np.uint64(15)
        h *= np.uint64(0x9E3779B97F4A7C15)
        offs = ((h >> np.uint64(32)) % np.uint64(LINES_PER_PAGE)).astype(np.int64)
        # Sorted, deduplicated per visit — same semantics as the retired
        # ``sorted(set(...))``, via an adjacent-duplicate mask.
        offs = np.sort(offs, axis=1)
        keep = np.ones(offs.shape, dtype=bool)
        keep[:, 1:] = offs[:, 1:] != offs[:, :-1]
        vsizes = keep.sum(axis=1)
        pcs = np.repeat(pc_base + contexts * 4, vsizes)
        pages_per_op = np.repeat(base_page + page_draw, vsizes)
        lines = (pages_per_op << _PAGE_LINE_SHIFT) + offs[keep]
        take = min(n - emitted, lines.size)
        ctx.emit_block(pcs[:take], lines[:take])
        emitted += take


def emit_sparse_global(ctx, n, deltas=(0, 7, 19, 33), pages=512, reorder=True):
    """Few accesses per page at fixed relative offsets (global deltas).

    BOP's global-delta scoring and anchored patterns capture this; SPP's
    per-delta confidence stays low because only a handful of accesses hit
    each page before it goes cold.
    """
    rng = ctx.rng
    deltas = np.asarray(deltas, dtype=np.int64)
    base_page = ctx.alloc_pages(pages)
    trigger_pc = ctx.alloc_pc()
    body_pc = ctx.alloc_pc()
    d = deltas.size
    visits = -(-n // d)
    page_off = np.arange(visits, dtype=np.int64) % pages
    starts = rng.integers(0, LINES_PER_PAGE - int(deltas.max()) - 1, visits)
    seg_id = np.repeat(np.arange(visits, dtype=np.int64), d)
    within = np.tile(np.arange(d, dtype=np.int64), visits)
    offs = starts[seg_id] + deltas[within]
    if reorder:
        offs = offs[_local_order(rng, seg_id, within, window=3)]
    pcs = np.where(within == 0, trigger_pc, body_pc)
    lines = ((base_page + page_off)[seg_id] << _PAGE_LINE_SHIFT) + offs
    ctx.emit_block(pcs[:n], lines[:n])


# --------------------------------------------------------------------------- #
# Irregular patterns: pointer chasing, key-value, noise
# --------------------------------------------------------------------------- #


def _affine_sequence(pos0, steps, mult, add, mod):
    """``steps`` iterates of ``x -> (mult*x + add) % mod`` after ``pos0``.

    The recurrence is affine, so ``k`` composed steps are again affine;
    doubling the known prefix with the composed map yields the whole
    sequence in O(log steps) vectorized passes instead of a scalar loop.
    """
    seq = np.empty(steps + 1, dtype=np.int64)
    seq[0] = pos0 % mod
    a, c = mult % mod, add % mod  # affine^1
    filled = 1
    while filled < steps + 1:
        take = min(filled, steps + 1 - filled)
        seq[filled : filled + take] = (seq[:take] * a + c) % mod
        a, c = (a * a) % mod, (a * c + c) % mod  # affine^filled doubles
        filled += take
    return seq[1:]


def emit_pointer_chase(ctx, n, working_set_pages=2048, spatial_hint=0.0):
    """A dependent-load chain over a large working set (mcf-like).

    Every load's address depends on the previous one (``FLAG_DEP``), so
    misses serialize and exposed latency dominates — any coverage a
    prefetcher finds translates into large speedups.  ``spatial_hint``
    blends in recurring node-field accesses spread over several cache
    lines (node header at +0, fields at +2 and +4 lines), giving spatial
    prefetchers a learnable footprint around each node.
    """
    rng = ctx.rng
    base_page = ctx.alloc_pages(working_set_pages)
    total_lines = working_set_pages * LINES_PER_PAGE
    pc_chase = ctx.alloc_pc()
    pc_fields = ctx.alloc_pcs(2)
    pos0 = int(rng.integers(0, total_lines))
    # A fixed odd multiplier walks the whole line space pseudo-randomly.
    positions = _affine_sequence(pos0, n, 1103515245, 0x9E3779B1, total_lines)
    # Anchor nodes to an 8-line slab so field offsets never leave it.
    nodes = positions & ~np.int64(7)
    chase_lines = (base_page << _PAGE_LINE_SHIFT) + nodes
    if not spatial_hint:
        ctx.emit_block(pc_chase, chase_lines[:n], deps=True)
        return
    hits = rng.random(n) < spatial_hint
    counts = np.where(hits, 3, 1)
    seg_id, within = _segments(counts)
    lines = chase_lines[seg_id] + 2 * within  # within 1 -> +2, 2 -> +4
    field_pcs = pc_fields[np.maximum(within, 1) - 1]
    pcs = np.where(within == 0, pc_chase, field_pcs)
    deps = within == 0
    ctx.emit_block(pcs[:n], lines[:n], deps=deps[:n])


def emit_kv(
    ctx, n, hot_pages=512, record_lines=2, zipf_alpha=1.1, scan_frac=0.05, pc_pool=4
):
    """Key-value lookups with a Zipf-hot set and occasional scans.

    Records span ``record_lines`` adjacent lines (adjacent-pair deltas keep
    Figure 11a's +1 dominance); scans sweep whole pages.  ``pc_pool`` sets
    how many distinct lookup sites the store is accessed from — server and
    cloud stacks reach their KV layers from hundreds of call sites, which
    is what pressures signature-indexed prefetcher storage (Figure 5).
    """
    rng = ctx.rng
    base_page = ctx.alloc_pages(hot_pages)
    pc_lookup = ctx.alloc_pcs(pc_pool)
    pc_scan = ctx.alloc_pc()
    records_per_page = LINES_PER_PAGE // record_lines
    mean_size = scan_frac * LINES_PER_PAGE + (1.0 - scan_frac) * record_lines
    emitted = 0
    while emitted < n:
        v = max(16, int((n - emitted) / mean_size) + 2)
        scans = rng.random(v) < scan_frac
        scan_pages = rng.integers(0, hot_pages, v)
        ranks = bounded_zipf(rng, hot_pages, zipf_alpha, v)
        records = rng.integers(0, records_per_page, v)
        write_draw = rng.random((v, record_lines)) < 0.2
        vsizes = np.where(scans, LINES_PER_PAGE, record_lines)
        seg_id, within = _segments(vsizes)
        page_v = np.where(scans, scan_pages, ranks)
        start_v = np.where(scans, 0, records * record_lines)
        offs = start_v[seg_id] + within
        pcs_v = np.where(scans, pc_scan, pc_lookup[records % pc_pool])
        writes = np.where(
            scans[seg_id],
            False,
            write_draw[seg_id, np.minimum(within, record_lines - 1)],
        )
        lines = ((base_page + page_v)[seg_id] << _PAGE_LINE_SHIFT) + offs
        take = min(n - emitted, lines.size)
        ctx.emit_block(pcs_v[seg_id][:take], lines[:take], writes=writes[:take])
        emitted += take


def emit_random(ctx, n, pages=4096):
    """Uniform random line accesses — unlearnable noise."""
    rng = ctx.rng
    base_page = ctx.alloc_pages(pages)
    pc = ctx.alloc_pc()
    page_draws = rng.integers(0, pages, n)
    offset_draws = rng.integers(0, LINES_PER_PAGE, n)
    lines = ((base_page + page_draws) << _PAGE_LINE_SHIFT) + offset_draws
    ctx.emit_block(pc, lines)


def emit_backref_stream(ctx, n, window_pages=32, backref_frac=0.3, pages=256):
    """Compression-style traffic: a forward stream with window back-refs.

    7-zip/bzip2 shape — a sequential scan plus reads at recent offsets
    inside a sliding window.  Back-reference distances are recency-biased
    (LZ matches overwhelmingly point at nearby history), so most back-refs
    land on pages the stream just left.
    """
    rng = ctx.rng
    base = ctx.alloc_pages(pages) << _PAGE_LINE_SHIFT
    pc_stream = ctx.alloc_pc()
    pc_ref = ctx.alloc_pc()
    limit = pages * LINES_PER_PAGE
    window = window_pages * LINES_PER_PAGE
    # Worst case every op is a stream step; back-refs interleave after
    # their step and the tail is trimmed to exactly n.
    refs = rng.random(n) < backref_frac
    # Geometric-ish recency bias: squaring a uniform sample concentrates
    # matches near the stream head while still occasionally reaching the
    # window tail.
    backs = 1 + ((rng.random(n) ** 2) * (window - 1)).astype(np.int64)
    pos = window + np.arange(n, dtype=np.int64)
    counts = np.where(refs, 2, 1)
    seg_id, within = _segments(counts)
    stream_lines = base + pos % limit
    ref_lines = base + (pos + 1 - backs) % limit
    lines = np.where(within == 0, stream_lines[seg_id], ref_lines[seg_id])
    pcs = np.where(within == 0, pc_stream, pc_ref)
    ctx.emit_block(pcs[:n], lines[:n])


def emit_blocks2d(ctx, n, block_lines=8, image_pages=256, reorder=True):
    """Video-codec shape: 2D macro-block sweeps with intra-block reorder."""
    rng = ctx.rng
    base_page = ctx.alloc_pages(image_pages)
    pc_trigger = ctx.alloc_pc()
    pc_body = ctx.alloc_pc()
    visits = -(-n // block_lines)
    page_off = np.arange(visits, dtype=np.int64) % image_pages
    starts = rng.integers(0, LINES_PER_PAGE - block_lines, visits)
    seg_id = np.repeat(np.arange(visits, dtype=np.int64), block_lines)
    within = np.tile(np.arange(block_lines, dtype=np.int64), visits)
    offs = starts[seg_id] + within
    if reorder:
        offs = offs[_local_order(rng, seg_id, within, window=4)]
    pcs = np.where(within == 0, pc_trigger, pc_body)
    lines = ((base_page + page_off)[seg_id] << _PAGE_LINE_SHIFT) + offs
    ctx.emit_block(pcs[:n], lines[:n])
