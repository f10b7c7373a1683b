"""Observability overhead smoke: tracing off must cost (near) nothing.

The observability design puts every event emit on a subclass
(``repro.memory.observed.ObservedHierarchy``); with tracing and
pollution recording off the system drivers construct the plain
``MemoryHierarchy``, so the hot path carries **zero** instrumentation by
construction.  This bench pins that claim two ways:

1. **structurally** — ``_make_hierarchy`` with no sink and no pollution
   recording must return the exact plain class (not the subclass);
2. **empirically** — a tracing-off ``System.run``, pinned to the object
   model, must cost no more than a *direct-drive* baseline that
   hand-builds the plain hierarchy and runs the identical
   warmup/measure protocol with zero driver plumbing on the same model.
   The two legs run back to back in each round, in swapped order every
   other round (use an even ``--repeats``), so host drift hits both
   sample sets equally, and the legs must produce bit-identical results.
   The overhead is the median of the per-round paired ratios
   ``system-off / direct``; it fails the gate when it exceeds
   ``--max-overhead`` (default 2%) plus the ratios' own interquartile
   spread, so a noisy host widens the bound instead of failing a run
   whose rounds disagree by more than 2%.

A tracing-on leg is also timed and reported (events to a collecting
sink) — it is informational only: tracing-on throughput is explicitly
not a goal.

Run directly::

    PYTHONPATH=src python benchmarks/bench_observe_overhead.py
"""

import argparse
import dataclasses
import gc
import os
import statistics
import sys
import time

from repro.cpu.core import CoreExecution
from repro.cpu.system import (
    System,
    SystemConfig,
    _make_hierarchy,
    _resolve_kernel,
    _result_from,
)
from repro.engine import TraceSpec, default_session
from repro.memory.dram import DramModel
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.observed import ObservedHierarchy
from repro.observe.sinks import CollectingSink
from repro.prefetchers.base import flush_training_with_cycle
from repro.prefetchers.registry import build_prefetcher
from repro.prefetchers.stride import PcStridePrefetcher


def check_structure():
    """The no-overhead-by-construction assertions."""
    cfg = SystemConfig.single_thread("dspatch")
    plain = _make_hierarchy(cfg, None, None, None, None, sink=None)
    assert type(plain) is MemoryHierarchy, type(plain)

    traced_cfg = SystemConfig.single_thread("dspatch", trace_prefetch=True)
    observed = _make_hierarchy(
        traced_cfg, None, None, None, None, sink=CollectingSink()
    )
    assert type(observed) is ObservedHierarchy, type(observed)

    # The plain class must carry no per-instance observability state.
    assert MemoryHierarchy.record_pollution_victims is False
    assert MemoryHierarchy.pollution_events == ()
    return True


def _direct_drive(cfg, trace):
    """System.run's exact protocol with the plain hierarchy hand-built.

    This is the no-instrumentation floor: no sink resolution, no
    hierarchy dispatch — the pre-observability code path, inlined.
    """
    dram = DramModel(cfg.dram)
    l1_pf = PcStridePrefetcher() if cfg.l1_stride else None
    l2_pf = build_prefetcher(cfg.l2_prefetcher, dram)
    hierarchy = MemoryHierarchy(
        config=cfg.hierarchy, dram=dram, l1_prefetcher=l1_pf, l2_prefetcher=l2_pf
    )
    execution = CoreExecution(cfg.core, trace, hierarchy)
    warmup_ops = int(len(trace) * cfg.warmup_frac)
    execution.run_ops(warmup_ops)
    execution.mark_stats_start()
    hierarchy.reset_stats()
    dram.reset_stats(execution.time)
    execution.run_ops()
    result = _result_from(execution, hierarchy, dram)
    if l2_pf is not None:
        flush_training_with_cycle(l2_pf, int(execution.time))
    return result


def run_bench(args):
    check_structure()
    print("structure        : tracing-off builds the plain MemoryHierarchy")

    trace = default_session().trace(TraceSpec(args.workload, args.length))
    # The direct drive is the object model by construction, so the legs
    # it is compared with must run the object model too.
    cfg = SystemConfig.single_thread(args.scheme, kernel="object")
    traced_cfg = SystemConfig.single_thread(
        args.scheme, trace_prefetch=True, trace_cache=True, kernel="object"
    )
    print(
        f"kernels          : direct=object, system-off={_resolve_kernel(cfg)}, "
        f"system-traced={_resolve_kernel(traced_cfg)}"
    )

    legs = [
        ("direct", lambda: _direct_drive(cfg, trace)),
        ("system-off", lambda: System(cfg).run(trace)),
        ("system-traced", lambda: System(traced_cfg, sink=CollectingSink()).run(trace)),
    ]
    results = {}
    for name, fn in legs:  # warmup pass per leg, outside the samples
        results[name] = fn()

    # Tracing must not perturb anything, on or off.
    base = dataclasses.asdict(results["direct"])
    for name in ("system-off", "system-traced"):
        if dataclasses.asdict(results[name]) != base:
            print(f"FAIL: {name} result differs from direct drive", file=sys.stderr)
            return 1
    print("parity           : all three legs produce identical RunResults")

    times = {name: [] for name, _ in legs}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # The compared pair swaps order every round.  The traced leg,
        # informational only, runs in rounds of its own afterwards: its
        # allocations would otherwise slow whichever leg follows it.
        rounds = [legs[:2] if r % 2 == 0 else legs[1::-1] for r in range(args.repeats)]
        rounds += [legs[2:]] * args.repeats
        for round_legs in rounds:
            for name, fn in round_legs:
                gc.collect()
                t0 = time.perf_counter()
                fn()
                times[name].append(time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()

    ratios = [off / direct for off, direct in zip(times["system-off"], times["direct"])]
    q1, median_ratio, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    overhead = median_ratio - 1.0
    bound = args.max_overhead + (q3 - q1)
    t_direct = statistics.median(times["direct"])
    t_traced = statistics.median(times["system-traced"])
    traced_factor = t_traced / t_direct

    print(f"direct drive     : {t_direct:8.3f}s  ({args.length} ops, {args.scheme})")
    print(
        f"system, trace off: {statistics.median(times['system-off']):8.3f}s  "
        f"(overhead {100 * overhead:+.2f}%: median of {len(ratios)} paired ratios, "
        f"quartiles {100 * (q1 - 1):+.2f}%..{100 * (q3 - 1):+.2f}%)"
    )
    print(f"system, traced   : {t_traced:8.3f}s  ({traced_factor:.2f}x, informational)")

    if overhead > bound:
        print(
            f"FAIL: tracing-off overhead {100 * overhead:.2f}% exceeds the "
            f"{100 * bound:.2f}% bound ({100 * args.max_overhead:.0f}% plus the "
            f"ratios' interquartile spread)",
            file=sys.stderr,
        )
        return 1
    print("PASS")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="ispec06.mcf")
    parser.add_argument("--scheme", default="dspatch")
    parser.add_argument("--length", type=int, default=30000)
    parser.add_argument("--repeats", type=int, default=10)
    # The legs run the same hot loop on the same class; 2% is timing
    # noise headroom, not an instrumentation budget (the gate adds the
    # measured spread on top).
    parser.add_argument("--max-overhead", type=float, default=0.02)
    args = parser.parse_args(argv)
    if args.repeats < 2:
        parser.error("--repeats must be at least 2 (the gate needs a spread)")
    return run_bench(args)


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    raise SystemExit(main())
