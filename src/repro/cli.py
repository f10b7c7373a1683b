"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

- ``list-workloads`` — the 75-workload catalog, by category.
- ``list-prefetchers`` — every registry scheme with its storage budget.
- ``run`` — simulate one workload under one scheme and print the result.
- ``figure`` — regenerate one or more paper figures (tables, optionally
  ASCII charts).
- ``trace-stats`` — access-structure statistics of a workload trace.
- ``sweep`` — one scheme across the six DRAM configurations (Figure 15's
  x-axis) for one workload.
- ``cache`` — inspect, clear, garbage-collect (``cache gc --max-mb N``,
  size-bounded LRU eviction) or scrub (``cache verify [--repair]``,
  quarantining corrupt entries to ``corrupt/``) the engine's on-disk
  result store.

Global engine flags (before the subcommand): ``--jobs N`` fans
independent runs across N worker processes, ``--kernel`` picks the
hot-loop kernel, ``--cache-dir PATH`` relocates the persistent store,
``--no-cache`` disables the disk layer for this invocation, and
``--shared-cache PATH`` layers a read-only shared store (e.g. a network
mount another host populated) under the local one — hits are promoted
into the local tier.

Simulation commands batch their runs through the default engine
:class:`~repro.engine.session.Session`, so ``--jobs`` parallelism
applies to every subcommand that runs more than one simulation.
"""

import argparse

from repro.memory.dram import BANDWIDTH_SWEEP, DramConfig, FixedBandwidth


def _parse_dram(label):
    """Parse ``"2ch-2400"``-style labels into a :class:`DramConfig`."""
    try:
        channels_part, grade_part = label.split("-")
        channels = int(channels_part.rstrip("ch"))
        grade = int(grade_part)
        return DramConfig(speed_grade=grade, channels=channels)
    except (ValueError, AttributeError):
        raise SystemExit(
            f"bad DRAM label {label!r}; expected e.g. 1ch-2133 or 2ch-2400"
        ) from None


def _cmd_list_workloads(args):
    from repro.workloads.catalog import CATEGORIES, WORKLOADS, workloads_in_category

    categories = [args.category] if args.category else CATEGORIES
    for category in categories:
        print(f"{category}:")
        for name in workloads_in_category(category):
            w = WORKLOADS[name]
            marker = " [mem-intensive]" if w.mem_intensive else ""
            print(f"  {name}  ({w.intensity}){marker}")
    return 0


def _cmd_list_prefetchers(args):
    from repro.prefetchers.registry import available_prefetchers, build_prefetcher

    print(f"{'scheme':18s} {'storage':>10s}")
    for name in available_prefetchers():
        pf = build_prefetcher(name, FixedBandwidth(0))
        kb = pf.storage_kb()
        print(f"{name:18s} {kb:9.1f}KB")
    print("\ncomposites: join with '+', e.g. spp+dspatch (primary first)")
    return 0


def _traced_run(args, dram):
    """Run the scheme directly with a trace sink attached.

    Tracing never changes the simulated result (the observed hierarchy is
    parity-pinned), so the baseline still comes from the session cache;
    only the traced run recomputes — events cannot come from a cache hit.
    """
    import sys

    from repro.cpu.system import System, SystemConfig
    from repro.engine import RunSpec, TraceSpec, default_session
    from repro.observe import LineSink

    session = default_session()
    base = session.run(RunSpec(args.workload, "none", args.length, dram))
    trace = session.trace(TraceSpec(args.workload, args.length))
    if args.trace_out:
        sink = LineSink(open(args.trace_out, "w"), close_stream=True)
        dest = args.trace_out
    else:
        sink = LineSink(sys.stderr)
        dest = "stderr"
    cfg = SystemConfig.single_thread(
        args.scheme,
        dram=dram,
        trace_prefetch=args.trace_prefetch,
        trace_cache=args.trace_cache,
    )
    try:
        res = System(cfg, sink=sink).run(trace)
    finally:
        events = sink.events_written
        sink.close()
    return base, res, (events, dest)


def _cmd_run(args):
    from repro.engine import RunSpec, default_session

    dram = _parse_dram(args.dram) if args.dram else None
    trace_note = None
    if args.trace_prefetch or args.trace_cache:
        base, res, trace_note = _traced_run(args, dram)
    else:
        # One batched Session.run so the baseline and the scheme fan out
        # over the worker pool together when --jobs > 1.
        base, res = default_session().run(
            [
                RunSpec(args.workload, "none", args.length, dram),
                RunSpec(args.workload, args.scheme, args.length, dram),
            ]
        )
    speedup = 100.0 * (res.ipc / base.ipc - 1.0) if base.ipc > 0 else 0.0
    if args.json:
        import json

        payload = res.to_dict()
        payload["workload"] = args.workload
        payload["scheme"] = args.scheme
        payload["baseline_ipc"] = base.ipc
        payload["speedup_pct"] = speedup
        if trace_note is not None:
            payload["trace_events"], payload["trace_out"] = trace_note
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"workload   {args.workload}")
    print(f"scheme     {args.scheme}")
    print(f"ipc        {res.ipc:.3f}  (baseline {base.ipc:.3f}, {speedup:+.1f}%)")
    print(f"coverage   {100 * res.coverage:.1f}%")
    print(f"accuracy   {100 * res.accuracy:.1f}%")
    print(f"issued     {res.pf_issued}  (late {res.pf_late}, useless {res.pf_useless})")
    print(f"l2 misses  {res.l2_demand_misses}  (mpki {res.mpki:.2f})")
    print(f"bandwidth  {res.achieved_gbps:.1f} GB/s achieved")
    residency = ", ".join(
        f"q{i}: {100 * share:.0f}%" for i, share in enumerate(res.bw_utilization_residency)
    )
    print(f"bw buckets {residency}")
    if trace_note is not None:
        events, dest = trace_note
        print(f"trace      {events} events -> {dest}")
    return 0


def _cmd_figure(args):
    from repro.experiments.figures import ALL_FIGURES

    unknown = [f for f in args.figures if f not in ALL_FIGURES]
    if unknown:
        known = ", ".join(ALL_FIGURES)
        raise SystemExit(f"unknown figure(s) {', '.join(unknown)}; known: {known}")
    targets = args.figures or list(ALL_FIGURES)
    for target in targets:
        fig = ALL_FIGURES[target]()
        print(fig.render())
        if args.chart:
            try:
                print()
                print(fig.render_chart())
            except ValueError:
                pass  # single-column figures have no chart form
        print()
    return 0


def _cmd_trace_stats(args):
    from repro.workloads.analysis import analyze_trace
    from repro.workloads.catalog import build_trace

    trace = build_trace(args.workload, args.length)
    print(analyze_trace(trace, args.workload).render())
    return 0


def _cmd_report(args):
    from repro.experiments.report import write_report

    path = write_report(args.output, args.figures or None, include_charts=not args.no_charts)
    print(f"wrote {path}")
    return 0


def _cmd_sweep(args):
    from repro.engine import RunSpec, default_session

    # All 12 runs (6 DRAM points x {baseline, scheme}) in one batch.
    specs = [
        RunSpec(args.workload, scheme, args.length, dram)
        for dram in BANDWIDTH_SWEEP
        for scheme in ("none", args.scheme)
    ]
    results = default_session().run(specs)
    print(f"{'dram':10s} {'peak GB/s':>9s} {'baseline':>9s} {args.scheme:>12s} {'delta':>8s}")
    for i, dram in enumerate(BANDWIDTH_SWEEP):
        base, res = results[2 * i], results[2 * i + 1]
        delta = 100.0 * (res.ipc / base.ipc - 1.0) if base.ipc > 0 else 0.0
        print(
            f"{dram.label():10s} {dram.peak_gbps:9.1f} {base.ipc:9.3f} "
            f"{res.ipc:12.3f} {delta:+7.1f}%"
        )
    return 0


def _cmd_cache(args):
    from repro.engine import active_store, code_salt, current_config

    cfg = current_config()
    store = active_store()
    if args.clear and args.action not in (None, "clear"):
        raise SystemExit(f"--clear contradicts the '{args.action}' action; pick one")
    action = "clear" if args.clear else (args.action or "show")
    if action == "clear":
        if store is None:
            print("disk cache disabled; nothing to clear")
            return 0
        store.clear()
        print(f"cleared {cfg.cache_dir}")
        return 0
    if action == "gc":
        if args.max_mb < 0:
            raise SystemExit(f"--max-mb must be non-negative, got {args.max_mb:g}")
        if store is None:
            print("disk cache disabled; nothing to collect")
            return 0
        summary = store.gc(int(args.max_mb * 1024 * 1024))
        print(
            f"evicted {summary['removed']} artifacts "
            f"({summary['freed_bytes'] / 1024:.1f} KB); "
            f"{summary['kept']} kept "
            f"({summary['remaining_bytes'] / 1024:.1f} KB <= {args.max_mb:g} MB)"
        )
        return 0
    if action == "verify":
        if store is None:
            print("disk cache disabled; nothing to verify")
            return 0
        verify = getattr(store, "verify", None)
        if verify is None:
            print("the configured store does not support verification")
            return 0
        report = verify(repair=args.repair)
        for reason, path in report["entries"]:
            print(f"{reason:<10} {path}")
        summary = (
            f"checked {report['checked']} artifacts: {report['ok']} ok, "
            f"{report['corrupt']} corrupt, {report['foreign']} foreign"
        )
        if args.repair:
            summary += f", {report['quarantined']} quarantined to corrupt/"
        print(summary)
        remaining = report["corrupt"] + report["foreign"] - report["quarantined"]
        if remaining:
            print("run 'repro cache verify --repair' to quarantine them")
        # A scrub that leaves bad entries in place is a failed check.
        return 1 if remaining else 0
    print(f"cache dir  {cfg.cache_dir}")
    print(f"disk cache {'enabled' if cfg.disk_cache else 'disabled'}")
    if cfg.shared_cache_dir is not None:
        print(f"shared     {cfg.shared_cache_dir} (read-only tier)")
    print(f"jobs       {cfg.jobs}")
    print(f"code salt  {code_salt()}")
    if store is not None:
        stats = store.stats()
        print(f"results    {stats['results']}")
        print(f"size       {stats['bytes'] / 1024:.1f} KB")
        if "shared_results" in stats:
            print(f"shared     {stats['shared_results']} results")
    return 0


def build_parser():
    """The argparse tree; exposed for the CLI tests."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DSPatch (MICRO'19) reproduction: simulate, analyze, regenerate figures.",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for independent runs (default: REPRO_JOBS or 1)",
    )
    from repro.engine.config import KERNEL_CHOICES

    parser.add_argument(
        "--kernel",
        choices=KERNEL_CHOICES,
        default=None,
        help="hot-loop kernel: 'compiled' builds the C twin (needs a C "
        "toolchain), 'object' runs the object model it transliterates; "
        "both are bit-identical. 'auto' picks compiled when a toolchain "
        "is present, else object (default: REPRO_KERNEL or auto)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="engine disk-cache directory (default: REPRO_CACHE_DIR or ~/.cache/dspatch-repro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent store, local and shared tiers alike, "
        "for this invocation",
    )
    parser.add_argument(
        "--shared-cache",
        default=None,
        help="read-only shared store layered under the local cache "
        "(read-through; e.g. a network mount another host populated; "
        "default: REPRO_SHARED_CACHE; ignored under --no-cache)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-workloads", help="show the 75-workload catalog").add_argument(
        "--category", help="only this category"
    )
    sub.add_parser("list-prefetchers", help="show registry schemes and storage")

    run = sub.add_parser("run", help="simulate one workload under one scheme")
    run.add_argument("--workload", required=True)
    run.add_argument("--scheme", default="dspatch")
    run.add_argument("--length", type=int, default=16000, help="memory ops to generate")
    run.add_argument("--dram", help="e.g. 1ch-2133 (default) or 2ch-2400")
    run.add_argument("--json", action="store_true", help="machine-readable output")
    run.add_argument(
        "--trace-prefetch",
        action="store_true",
        help="emit per-event prefetch trace lines (issue/fill/useful/late/"
        "evicted-unused/polluting; grammar in docs/observability.md)",
    )
    run.add_argument(
        "--trace-cache",
        action="store_true",
        help="emit per-access demand hit/miss trace lines",
    )
    run.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write trace events to PATH instead of stderr",
    )

    fig = sub.add_parser("figure", help="regenerate paper figures")
    fig.add_argument("figures", nargs="*", help="figure ids (default: all)")
    fig.add_argument("--chart", action="store_true", help="also draw ASCII charts")

    stats = sub.add_parser("trace-stats", help="access-structure statistics")
    stats.add_argument("--workload", required=True)
    stats.add_argument("--length", type=int, default=16000)

    sweep = sub.add_parser("sweep", help="one scheme across the DRAM sweep")
    sweep.add_argument("--workload", required=True)
    sweep.add_argument("--scheme", default="spp+dspatch")
    sweep.add_argument("--length", type=int, default=16000)

    report = sub.add_parser("report", help="write a full markdown reproduction report")
    report.add_argument("figures", nargs="*", help="figure ids (default: all)")
    report.add_argument("--output", default="report.md")
    report.add_argument("--no-charts", action="store_true")

    cache = sub.add_parser("cache", help="inspect, clear or garbage-collect the engine disk cache")
    cache.add_argument(
        "action",
        nargs="?",
        choices=("show", "clear", "gc", "verify"),
        default=None,
        help="show store info (default), delete everything, LRU-evict to "
        "a size bound, or scrub every entry for corruption",
    )
    cache.add_argument("--clear", action="store_true", help="alias for the 'clear' action")
    cache.add_argument(
        "--max-mb",
        type=float,
        default=512.0,
        help="gc size bound in MB: least-recently-used artifacts are evicted until the store fits (default 512)",
    )
    cache.add_argument(
        "--repair",
        action="store_true",
        help="with 'verify': move corrupt/foreign entries to corrupt/ "
        "under the store root (non-destructive quarantine) so they "
        "become honest recomputable misses",
    )

    return parser


_HANDLERS = {
    "list-workloads": _cmd_list_workloads,
    "list-prefetchers": _cmd_list_prefetchers,
    "run": _cmd_run,
    "figure": _cmd_figure,
    "trace-stats": _cmd_trace_stats,
    "sweep": _cmd_sweep,
    "report": _cmd_report,
    "cache": _cmd_cache,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    if (
        args.jobs is not None
        or args.cache_dir is not None
        or args.no_cache
        or args.shared_cache is not None
        or args.kernel is not None
    ):
        from repro.engine import configure

        configure(
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            disk_cache=False if args.no_cache else None,
            shared_cache_dir=args.shared_cache,
            kernel=args.kernel,
        )
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
