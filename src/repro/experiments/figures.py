"""One driver per table/figure of the DSPatch evaluation.

Every function returns a :class:`repro.metrics.stats.FigureResult` whose
rows/columns mirror the paper's series, rendered by ``.render()``.  Scale
comes from :class:`repro.experiments.scale.Scale` (environment-driven)
unless an explicit ``scale`` is passed.

Simulation flows through the session API: every driver accepts an
optional ``session`` (a :class:`repro.engine.Session`) and defaults to
the process-wide one, batching its whole workload × scheme cross product
through ``Session.run`` so ``--jobs`` parallelism covers the entire grid
and results persist in the session's store backend.
"""

from collections import Counter

from repro.constants import LINES_PER_PAGE
from repro.core.bitpattern import (
    compress_pattern,
    expand_pattern,
    popcount,
    quantize_quartile,
)
from repro.core.storage import dspatch_storage_table
from repro.memory.dram import BANDWIDTH_SWEEP, DramConfig, FixedBandwidth
from repro.metrics.pollution import classify_pollution
from repro.metrics.stats import FigureResult, category_geomeans, geomean
from repro.prefetchers.registry import build_prefetcher
from repro.engine import TraceSpec
from repro.experiments import api
from repro.experiments.api import (
    category_of,
    resolve_session,
    scheme_label,
    workload_subset,
)
from repro.experiments.scale import Scale
from repro.workloads.catalog import CATEGORIES, MEMORY_INTENSIVE, WORKLOADS
from repro.workloads.mixes import heterogeneous_mixes, homogeneous_mixes

_CATEGORY_COLUMNS = list(CATEGORIES) + ["GEOMEAN"]


def _scale(scale):
    return scale or Scale.from_env()


def _categories_map(workloads):
    return {name: category_of(name) for name in workloads}


def _category_speedup_rows(session, schemes, workloads, length, dram=None):
    rows = {}
    cats = _categories_map(workloads)
    api.run_grid(session, workloads, ["none", *schemes], length, dram)
    for scheme in schemes:
        ratios = api.speedup_ratios(session, scheme, workloads, length, dram)
        rows[scheme_label(scheme)] = category_geomeans(ratios, cats)
    return rows


def _bandwidth_sweep_rows(session, schemes, workloads, length):
    """{scheme-label: {peak-GBps-label: overall geomean pct}}."""
    rows = {scheme_label(s): {} for s in schemes}
    for dram in BANDWIDTH_SWEEP:
        column = f"{dram.peak_gbps:.1f}"
        api.run_grid(session, workloads, ["none", *schemes], length, dram)
        for scheme in schemes:
            ratios = api.speedup_ratios(session, scheme, workloads, length, dram)
            pct = 100.0 * (geomean(ratios.values()) - 1.0)
            rows[scheme_label(scheme)][column] = pct
    return rows


def _bandwidth_columns():
    return [f"{d.peak_gbps:.1f}" for d in BANDWIDTH_SWEEP]


# --------------------------------------------------------------------------- #
# Figures 1 / 6 / 15: performance scaling with DRAM bandwidth
# --------------------------------------------------------------------------- #


def fig01_bw_scaling_prior(scale=None, session=None):
    """Figure 1: BOP/SMS/SPP speedup vs. the six peak-bandwidth points."""
    scale = _scale(scale)
    session = resolve_session(session)
    workloads = workload_subset(scale.workloads_per_category)
    rows = _bandwidth_sweep_rows(session, ["bop", "sms", "spp"], workloads, scale.trace_len)
    fig = FigureResult(
        "fig01",
        "Figure 1: prior-prefetcher performance scaling with DRAM bandwidth "
        "(geomean % over baseline)",
        _bandwidth_columns(),
        rows,
        notes=["columns are peak DRAM GB/s: 1ch/2ch x DDR4-1600/2133/2400"],
    )
    return fig


def fig06_bw_scaling_enhanced(scale=None, session=None):
    """Figure 6: Figure 1 plus the bandwidth-aware eSPP and eBOP."""
    scale = _scale(scale)
    session = resolve_session(session)
    workloads = workload_subset(scale.workloads_per_category)
    rows = _bandwidth_sweep_rows(
        session, ["bop", "sms", "spp", "espp", "ebop"], workloads, scale.trace_len
    )
    return FigureResult(
        "fig06",
        "Figure 6: bandwidth scaling incl. enhanced eSPP/eBOP (geomean % over baseline)",
        _bandwidth_columns(),
        rows,
        notes=["paper's takeaway: none of the five scales well"],
    )


def fig15_bw_scaling_dspatch(scale=None, session=None):
    """Figure 15: DSPatch+SPP (and eBOP+SPP) bandwidth scaling."""
    scale = _scale(scale)
    session = resolve_session(session)
    workloads = workload_subset(scale.workloads_per_category)
    rows = _bandwidth_sweep_rows(
        session,
        ["bop", "sms", "spp", "spp+ebop", "spp+dspatch"],
        workloads,
        scale.trace_len,
    )
    return FigureResult(
        "fig15",
        "Figure 15: performance scaling with DRAM bandwidth (geomean % over baseline)",
        _bandwidth_columns(),
        rows,
        notes=[
            "paper shape: DSPatch+SPP grows from ~6% over SPP (1ch-2133) to "
            "~10% (2ch-2133) and beats eBOP+SPP with a widening gap"
        ],
    )


# --------------------------------------------------------------------------- #
# Figures 4 / 12 / 14: per-category single-thread comparisons
# --------------------------------------------------------------------------- #


def fig04_prior_prefetchers_by_category(scale=None, session=None):
    """Figure 4: BOP/SMS/SPP per workload category, 1ch DDR4-2133."""
    scale = _scale(scale)
    session = resolve_session(session)
    workloads = workload_subset(scale.workloads_per_category)
    rows = _category_speedup_rows(
        session, ["bop", "sms", "spp"], workloads, scale.trace_len
    )
    return FigureResult(
        "fig04",
        "Figure 4: BOP/SMS/SPP by category (% over baseline, 1ch DDR4-2133)",
        _CATEGORY_COLUMNS,
        rows,
        notes=["paper shape: SPP wins 6 of 9 categories; SMS wins ISPEC17/Cloud/SYSmark"],
    )


def fig12_single_thread(scale=None, session=None):
    """Figure 12: the headline single-thread comparison."""
    scale = _scale(scale)
    session = resolve_session(session)
    workloads = workload_subset(scale.workloads_per_category)
    rows = _category_speedup_rows(
        session,
        ["bop", "sms", "spp", "dspatch", "spp+dspatch"],
        workloads,
        scale.trace_len,
    )
    return FigureResult(
        "fig12",
        "Figure 12: single-thread performance (% over baseline, 1ch DDR4-2133)",
        _CATEGORY_COLUMNS,
        rows,
        notes=[
            "paper: DSPatch+SPP beats standalone SPP by ~6% geomean and wins "
            "every category"
        ],
    )


def fig14_adjunct_prefetchers(scale=None, session=None):
    """Figure 14: BOP / SMS-256 / DSPatch as adjuncts to SPP."""
    scale = _scale(scale)
    session = resolve_session(session)
    workloads = workload_subset(scale.workloads_per_category)
    rows = _category_speedup_rows(
        session,
        ["spp", "spp+bop", "spp+sms-256", "spp+dspatch"],
        workloads,
        scale.trace_len,
    )
    return FigureResult(
        "fig14",
        "Figure 14: adjunct prefetchers to SPP (% over baseline, 1ch DDR4-2133)",
        _CATEGORY_COLUMNS,
        rows,
        notes=["paper: DSPatch+SPP > BOP+SPP (by ~2.1%) > SMS(iso-storage)+SPP"],
    )


# --------------------------------------------------------------------------- #
# Figure 5: SMS storage sweep
# --------------------------------------------------------------------------- #


def fig05_sms_pht_sweep(scale=None, session=None):
    """Figure 5: SMS performance vs. pattern-history-table capacity."""
    scale = _scale(scale)
    session = resolve_session(session)
    workloads = workload_subset(scale.workloads_per_category)
    fig = FigureResult(
        "fig05",
        "Figure 5: SMS performance vs. PHT entries (geomean % over baseline)",
        ["16K", "4K", "1K", "256"],
        notes=["paper: halving from 16.5% (16K, 88KB) to 8.8% (256 entries, 3.5KB)"],
    )
    api.run_grid(
        session, workloads, ["none", "sms", "sms-4k", "sms-1k", "sms-256"], scale.trace_len
    )
    row = {}
    for scheme, column in (("sms", "16K"), ("sms-4k", "4K"), ("sms-1k", "1K"), ("sms-256", "256")):
        ratios = api.speedup_ratios(session, scheme, workloads, scale.trace_len)
        row[column] = 100.0 * (geomean(ratios.values()) - 1.0)
    fig.add_row("SMS", row)
    return fig


# --------------------------------------------------------------------------- #
# Figure 8: goodness quantization worked example
# --------------------------------------------------------------------------- #


def fig08_quantization_example():
    """Figure 8: the paper's worked accuracy/coverage quartile example."""
    program = int("1011010000111100"[::-1], 2)
    predicted = int("1010011000000001"[::-1], 2)
    overlap = program & predicted
    c_real, c_pred, c_acc = popcount(program), popcount(predicted), popcount(overlap)
    accuracy_q = quantize_quartile(c_acc, c_pred)
    coverage_q = quantize_quartile(c_acc, c_real)
    labels = ["<25%", "25-50%", "50-75%", ">=75%"]
    fig = FigureResult(
        "fig08",
        "Figure 8: prediction accuracy/coverage via AND + PopCount",
        ["popcount", "quartile"],
        notes=[f"program={program:016b} predicted={predicted:016b}"],
    )
    fig.add_row("Program", {"popcount": float(c_real), "quartile": "-"})
    fig.add_row("Predicted", {"popcount": float(c_pred), "quartile": "-"})
    fig.add_row("Bitwise-AND", {"popcount": float(c_acc), "quartile": "-"})
    fig.add_row("Accuracy 3/5", {"popcount": float(c_acc), "quartile": labels[accuracy_q]})
    fig.add_row("Coverage 3/8", {"popcount": float(c_acc), "quartile": labels[coverage_q]})
    return fig


# --------------------------------------------------------------------------- #
# Figure 11: delta distribution and compression error
# --------------------------------------------------------------------------- #


def fig11a_delta_distribution(scale=None, session=None):
    """Figure 11(a): distribution of in-page line-address deltas.

    Deltas are tracked per page (successive accesses *to the same page*,
    which survives stream interleaving) and each workload's distribution
    carries equal weight — the paper's "across all workloads" average,
    not a raw pool that would over-weight delta-heavy traces.
    """
    from repro.workloads.analysis import delta_distribution

    scale = _scale(scale)
    session = resolve_session(session)
    workloads = workload_subset(scale.workloads_per_category)
    shares = Counter()
    counted = 0
    for name in workloads:
        trace = session.trace(TraceSpec(name, scale.trace_len))
        deltas, total = delta_distribution(trace, top=10**6)
        if not total:
            continue
        counted += 1
        for delta, count in deltas.items():
            if delta == 1:
                key = "+1"
            elif delta == -1:
                key = "-1"
            elif delta in (2, 3):
                key = "+2,+3"
            else:
                key = "other"
            shares[key] += count / total
    fig = FigureResult(
        "fig11a",
        "Figure 11(a): delta occurrence distribution (mean % of in-page deltas)",
        ["+1", "-1", "+2,+3", "other"],
        notes=["paper: +1 and -1 together exceed ~50-60% of deltas"],
    )
    row = {k: 100.0 * shares.get(k, 0) / counted if counted else 0.0 for k in fig.columns}
    fig.add_row("All workloads", row)
    return fig


def _page_patterns_of(trace):
    """Final observed 64-bit access pattern of every touched page."""
    patterns = {}
    for addr in trace.addrs.tolist():
        page = addr >> 12
        patterns[page] = patterns.get(page, 0) | (1 << ((addr >> 6) & 63))
    return patterns


def fig11b_compression_error(scale=None, session=None):
    """Figure 11(b): misprediction rate induced by 128B compression.

    For each workload, compare each page's true 64B pattern against the
    expansion of its compressed pattern; the extra lines are compression
    mispredictions.  Workloads are bucketed by their average rate exactly
    as the paper's pie chart buckets them.
    """
    scale = _scale(scale)
    session = resolve_session(session)
    workloads = workload_subset(scale.workloads_per_category)
    buckets = Counter()
    rates = {}
    for name in workloads:
        trace = session.trace(TraceSpec(name, scale.trace_len))
        extra = 0
        predicted = 0
        for pattern in _page_patterns_of(trace).values():
            roundtrip = expand_pattern(compress_pattern(pattern, LINES_PER_PAGE))
            predicted += popcount(roundtrip)
            extra += popcount(roundtrip & ~pattern)
        rate = extra / predicted if predicted else 0.0
        rates[name] = rate
        # Rates under 0.5% are boundary pages of a finite trace (a stream's
        # last partially-filled page); the paper's steady-state equivalent
        # is exactly zero.
        if rate < 0.005:
            buckets["Exactly 0%"] += 1
        elif rate < 0.125:
            buckets["0%-12.5%"] += 1
        elif rate < 0.25:
            buckets["12.5%-25%"] += 1
        elif rate < 0.37:
            buckets["25%-37%"] += 1
        elif rate < 0.5:
            buckets["37%-50%"] += 1
        else:
            buckets["Exactly 50%"] += 1
    columns = ["Exactly 0%", "0%-12.5%", "12.5%-25%", "25%-37%", "37%-50%", "Exactly 50%"]
    fig = FigureResult(
        "fig11b",
        "Figure 11(b): workloads bucketed by 128B-compression misprediction rate (%)",
        columns,
        notes=[
            "paper: 42% of workloads see no mispredictions; 70% stay below 25%",
            f"mean rate across workloads: {100.0 * sum(rates.values()) / len(rates):.1f}%",
        ],
    )
    total = sum(buckets.values())
    fig.add_row(
        "Share of workloads",
        {c: 100.0 * buckets.get(c, 0) / total if total else 0.0 for c in columns},
    )
    return fig


# --------------------------------------------------------------------------- #
# Figure 13: memory-intensive per-workload line graph
# --------------------------------------------------------------------------- #


def fig13_memory_intensive_lines(scale=None, max_workloads=None, session=None):
    """Figure 13: SMS / SPP / DSPatch+SPP on the memory-intensive set."""
    scale = _scale(scale)
    session = resolve_session(session)
    names = list(MEMORY_INTENSIVE)
    if max_workloads is None:
        max_workloads = len(names) if scale.full else 12
    names = names[:max_workloads]
    schemes = ["sms", "spp", "spp+dspatch"]
    api.run_grid(session, names, ["none", *schemes], scale.trace_len)
    per_scheme = {s: api.speedup_ratios(session, s, names, scale.trace_len) for s in schemes}
    order = sorted(names, key=lambda n: per_scheme["spp+dspatch"][n])
    fig = FigureResult(
        "fig13",
        "Figure 13: memory-intensive workloads (% over baseline, sorted by DSPatch+SPP)",
        [scheme_label(s) for s in schemes],
        notes=[
            "paper: DSPatch+SPP beats SPP by 9% on this set; loses to SMS only "
            "on TPC-C (huge code footprint)"
        ],
    )
    for name in order:
        fig.add_row(
            name,
            {scheme_label(s): 100.0 * (per_scheme[s][name] - 1.0) for s in schemes},
        )
    geo = {
        scheme_label(s): 100.0 * (geomean(per_scheme[s].values()) - 1.0) for s in schemes
    }
    fig.add_row("GEOMEAN", geo)
    return fig


# --------------------------------------------------------------------------- #
# Figure 16: coverage and mispredictions
# --------------------------------------------------------------------------- #


def fig16_coverage_accuracy(scale=None, session=None):
    """Figure 16: covered / uncovered / mispredicted fractions per category."""
    scale = _scale(scale)
    session = resolve_session(session)
    workloads = workload_subset(scale.workloads_per_category)
    schemes = ["bop", "sms", "spp", "spp+dspatch"]
    grid = api.run_grid(session, workloads, schemes, scale.trace_len)
    fig = FigureResult(
        "fig16",
        "Figure 16: prefetch coverage breakdown (% of baseline L2 misses)",
        ["Covered", "Uncovered", "Mispredicted"],
        notes=[
            "paper: DSPatch+SPP has ~15% more coverage than SPP at ~6.5% more "
            "mispredictions (2:1 ratio)"
        ],
    )
    by_category = {}
    for name in workloads:
        by_category.setdefault(category_of(name), []).append(name)
    for category in list(CATEGORIES) + ["AVG"]:
        names = workloads if category == "AVG" else by_category.get(category, [])
        if not names:
            continue
        for scheme in schemes:
            covered = uncovered = mispredicted = 0
            for name in names:
                res = grid[(name, scheme)]
                covered += res.pf_useful
                uncovered += res.l2_demand_misses
                # Prefetches never demanded: evicted-unused plus those still
                # resident untouched at run end.
                mispredicted += res.pf_issued - res.pf_useful
            base_total = covered + uncovered
            if base_total == 0:
                continue
            fig.add_row(
                f"{category}/{scheme_label(scheme)}",
                {
                    "Covered": 100.0 * covered / base_total,
                    "Uncovered": 100.0 * uncovered / base_total,
                    "Mispredicted": 100.0 * mispredicted / base_total,
                },
            )
    return fig


# --------------------------------------------------------------------------- #
# Figures 17 / 18: multi-programmed results
# --------------------------------------------------------------------------- #


def fig17_mp_homogeneous(scale=None, session=None):
    """Figure 17: homogeneous 4-copy mixes on the MP machine."""
    scale = _scale(scale)
    session = resolve_session(session)
    mixes = homogeneous_mixes()
    if not scale.full:
        # Deterministic spread: pick mixes across categories.
        step = max(1, len(mixes) // scale.mix_count)
        mixes = mixes[::step][: scale.mix_count]
    schemes = ["bop", "sms", "spp", "spp+dspatch"]
    api.warm_mix_grid(session, mixes, ["none", *schemes], scale.mix_trace_len)
    per_scheme = {}
    for scheme in schemes:
        ratios = {}
        for mix_name, names in mixes:
            ratios[mix_name] = api.mix_speedup_ratio(
                session, mix_name, names, scheme, scale.mix_trace_len
            )
        per_scheme[scheme] = ratios
    cats = {mix_name: category_of(mix_name) for mix_name, _ in mixes}
    fig = FigureResult(
        "fig17",
        "Figure 17: multi-programmed homogeneous mixes (% weighted speedup over baseline)",
        _CATEGORY_COLUMNS,
        notes=["paper: DSPatch+SPP improves 5.9% over standalone SPP"],
    )
    for scheme in schemes:
        fig.add_row(scheme_label(scheme), category_geomeans(per_scheme[scheme], cats))
    return fig


def fig18_mp_bandwidth(scale=None, session=None):
    """Figure 18: homogeneous vs heterogeneous mixes at two DRAM speeds."""
    scale = _scale(scale)
    session = resolve_session(session)
    homo = homogeneous_mixes()
    hetero = heterogeneous_mixes(count=scale.mix_count)
    if not scale.full:
        step = max(1, len(homo) // scale.mix_count)
        homo = homo[::step][: scale.mix_count]
    schemes = ["bop", "sms", "spp", "spp+dspatch"]
    drams = {
        "DDR4-2133": DramConfig(speed_grade=2133, channels=2),
        "DDR4-2400": DramConfig(speed_grade=2400, channels=2),
    }
    columns = []
    fig_rows = {scheme_label(s): {} for s in schemes}
    for dram_name, dram in drams.items():
        for flavour, mixes in (("Homogeneous", homo), ("Heterogeneous", hetero)):
            column = f"{flavour}@{dram_name}"
            columns.append(column)
            api.warm_mix_grid(session, mixes, ["none", *schemes], scale.mix_trace_len, dram)
            for scheme in schemes:
                ratios = [
                    api.mix_speedup_ratio(
                        session, mix_name, names, scheme, scale.mix_trace_len, dram
                    )
                    for mix_name, names in mixes
                ]
                fig_rows[scheme_label(scheme)][column] = 100.0 * (geomean(ratios) - 1.0)
    return FigureResult(
        "fig18",
        "Figure 18: multi-programmed mixes at two DRAM bandwidths (% over baseline)",
        columns,
        fig_rows,
        notes=["paper: DSPatch+SPP gains grow with the 2133→2400 bandwidth bump"],
    )


# --------------------------------------------------------------------------- #
# Figure 19: contribution of the accuracy-biased pattern
# --------------------------------------------------------------------------- #


def fig19_accp_contribution(scale=None, max_workloads=None, session=None):
    """Figure 19: full DSPatch vs AlwaysCovP vs ModCovP ablation."""
    scale = _scale(scale)
    session = resolve_session(session)
    names = list(MEMORY_INTENSIVE)
    if max_workloads is None:
        max_workloads = len(names) if scale.full else 12
    names = names[:max_workloads]
    fig = FigureResult(
        "fig19",
        "Figure 19: accuracy-biased pattern ablation (% over baseline, geomean)",
        ["DSPatch", "AlwaysCovP", "ModCovP"],
        notes=["paper: AlwaysCovP loses ~4.5% and ModCovP ~1.4% vs full DSPatch"],
    )
    api.run_grid(
        session,
        names,
        ["none", "spp+dspatch", "spp+alwayscovp", "spp+modcovp"],
        scale.trace_len,
    )
    row = {}
    for scheme, column in (
        ("spp+dspatch", "DSPatch"),
        ("spp+alwayscovp", "AlwaysCovP"),
        ("spp+modcovp", "ModCovP"),
    ):
        ratios = api.speedup_ratios(session, scheme, names, scale.trace_len)
        row[column] = 100.0 * (geomean(ratios.values()) - 1.0)
    fig.add_row("DSPatch+SPP variants", row)
    return fig


# --------------------------------------------------------------------------- #
# Figure 20 (appendix): LLC pollution breakdown
# --------------------------------------------------------------------------- #


def fig20_pollution(scale=None, reuse_window_fraction=0.5, session=None):
    """Figure 20: pollution classes of streamer-prefetch victims vs LLC size.

    At reduced scale the traces cannot fill a multi-megabyte LLC, so the
    three capacities are scaled down 8:1 with their 4:2:1 ratio preserved
    (true sizes under ``REPRO_FULL=1``) — pollution is a capacity-pressure
    phenomenon and the ratio is what shapes the trend.  An LLC size whose
    runs classify no victim at all gets a row of ``None`` (rendered ``-``)
    and a note: a measurement that was never made, not 0%.
    """
    scale = _scale(scale)
    session = resolve_session(session)
    workloads = workload_subset(max(1, scale.workloads_per_category // 2))
    if scale.full:
        llc_sizes = {"8MB": 8 << 20, "4MB": 4 << 20, "2MB": 2 << 20}
        size_note = "true paper LLC capacities (REPRO_FULL)"
    else:
        llc_sizes = {"8MB": 1 << 20, "4MB": 512 << 10, "2MB": 256 << 10}
        size_note = "LLC capacities scaled 8:1 for reduced-scale traces (ratio preserved)"
    trace_len = max(scale.trace_len, 12000)
    grids = {
        size: api.run_grid(
            session,
            workloads,
            ["streamer"],
            trace_len,
            llc_bytes=size,
            record_pollution=True,
        )
        for size in llc_sizes.values()
    }
    fig = FigureResult(
        "fig20",
        "Figure 20 (appendix): LLC pollution breakdown under a streaming prefetcher (%)",
        ["NoReuse", "PrefetchedBeforeUse", "BadPollution"],
        notes=[
            "paper (2MB): ~84% NoReuse / ~13% PrefetchedBeforeUse / ~3% BadPollution;",
            size_note,
            f"reuse window = {reuse_window_fraction} of the demand stream",
        ],
    )
    for label, size in llc_sizes.items():
        totals = Counter()
        for name in workloads:
            res = grids[size][(name, "streamer")]
            window = int(len(res.demand_log) * reuse_window_fraction)
            breakdown = classify_pollution(
                [(e.ordinal, e.victim_line) for e in res.pollution_events],
                res.demand_log,
                res.prefetch_fill_log,
                window,
            )
            totals["NoReuse"] += breakdown.no_reuse
            totals["PrefetchedBeforeUse"] += breakdown.prefetched_before_use
            totals["BadPollution"] += breakdown.bad_pollution
        grand = sum(totals.values())
        if grand:
            fig.add_row(label, {c: 100.0 * totals[c] / grand for c in fig.columns})
        else:
            fig.add_row(label, dict.fromkeys(fig.columns))
            fig.notes.append(
                f"{label} row: no data (no prefetch victim classified at "
                f"LLC {size >> 10} KB, trace_len {trace_len})"
            )
    return fig


# --------------------------------------------------------------------------- #
# Tables 1 and 3: storage budgets
# --------------------------------------------------------------------------- #


def table1_dspatch_storage():
    """Table 1: DSPatch storage overhead (must equal 3.6 KB)."""
    table = dspatch_storage_table()
    fig = FigureResult(
        "table1",
        "Table 1: DSPatch storage overhead",
        ["entries", "bits", "KB"],
        notes=[f"total: {table['total_bits']} bits = {table['total_kb']:.2f} KB (paper: 3.6 KB)"],
    )
    for row in table["rows"]:
        fig.add_row(
            row["structure"],
            {
                "entries": float(row["entries"]),
                "bits": float(row["bits"]),
                "KB": row["bits"] / 8 / 1024,
            },
        )
    return fig


def table3_prefetcher_storage():
    """Table 3: storage budgets of every evaluated prefetcher."""
    bw = FixedBandwidth(0)
    fig = FigureResult(
        "table3",
        "Table 3: prefetcher storage budgets",
        ["KB"],
        notes=["paper: BOP 1.3KB, SMS 88KB, SPP 6.2KB, DSPatch 3.6KB"],
    )
    for scheme in ("bop", "sms", "sms-256", "spp", "dspatch"):
        prefetcher = build_prefetcher(scheme, bw)
        fig.add_row(scheme_label(scheme), {"KB": prefetcher.storage_kb()})
    return fig


# --------------------------------------------------------------------------- #
# Section 5.1 extra: the SPP+BOP+DSPatch triple hybrid
# --------------------------------------------------------------------------- #


def extra_triple_hybrid(scale=None, session=None):
    """Section 5.1 (text): DSPatch adds ~2.6% on top of SPP+BOP."""
    scale = _scale(scale)
    session = resolve_session(session)
    workloads = workload_subset(scale.workloads_per_category)
    fig = FigureResult(
        "extra-triple",
        "Section 5.1: SPP+BOP vs SPP+BOP+DSPatch (geomean % over baseline)",
        ["SPP+BOP", "SPP+BOP+DSPatch"],
        notes=["paper: the triple adds ~2.6% — BOP and DSPatch coverage do not fully overlap"],
    )
    api.run_grid(session, workloads, ["none", "spp+bop", "spp+bop+dspatch"], scale.trace_len)
    row = {}
    for scheme, column in (("spp+bop", "SPP+BOP"), ("spp+bop+dspatch", "SPP+BOP+DSPatch")):
        ratios = api.speedup_ratios(session, scheme, workloads, scale.trace_len)
        row[column] = 100.0 * (geomean(ratios.values()) - 1.0)
    fig.add_row("Hybrid", row)
    return fig


def quality_profiles(scale=None, session=None):
    """Cross-cutting: scored quality profiles for every registry scheme.

    Lives in :mod:`repro.experiments.quality`; registered here so the
    ``quality`` id flows through ``repro figure`` / ``repro report``
    like any paper figure.
    """
    from repro.experiments.quality import quality_profiles as driver

    return driver(scale, session=session)


#: Registry used by ``python -m repro.experiments.figures <id>`` and tests.
ALL_FIGURES = {
    "fig01": fig01_bw_scaling_prior,
    "fig04": fig04_prior_prefetchers_by_category,
    "fig05": fig05_sms_pht_sweep,
    "fig06": fig06_bw_scaling_enhanced,
    "fig08": fig08_quantization_example,
    "fig11a": fig11a_delta_distribution,
    "fig11b": fig11b_compression_error,
    "fig12": fig12_single_thread,
    "fig13": fig13_memory_intensive_lines,
    "fig14": fig14_adjunct_prefetchers,
    "fig15": fig15_bw_scaling_dspatch,
    "fig16": fig16_coverage_accuracy,
    "fig17": fig17_mp_homogeneous,
    "fig18": fig18_mp_bandwidth,
    "fig19": fig19_accp_contribution,
    "fig20": fig20_pollution,
    "table1": table1_dspatch_storage,
    "table3": table3_prefetcher_storage,
    "extra-triple": extra_triple_hybrid,
    "quality": quality_profiles,
}


def main(argv=None):
    """CLI: render one or more figures, e.g. ``... figures fig12 table1``."""
    import sys

    args = argv if argv is not None else sys.argv[1:]
    targets = args or list(ALL_FIGURES)
    for target in targets:
        if target not in ALL_FIGURES:
            known = ", ".join(ALL_FIGURES)
            raise SystemExit(f"unknown figure {target!r} (known: {known})")
        print(ALL_FIGURES[target]().render())
        print()


if __name__ == "__main__":
    main()
