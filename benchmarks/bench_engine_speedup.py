"""Engine speedup bench: kernel / cold / parallel / warm-cache trajectory.

Measures the fig12-style single-thread figure driver (the headline
comparison: 6 schemes x N workloads) under several regimes:

1. **kernel legs** — empty disk cache, ``jobs=1``, one cold sequential
   measurement per hot-loop kernel: the ``object`` model and (when a C
   toolchain is present) its ``compiled`` C twin.  The compiled kernel,
   or the object model on a host without a toolchain, is the headline
   ``cold sequential`` leg.  When the compiled kernel is
   available, a dedicated **scheme-training leg** additionally times the
   C-twinned schemes (:data:`TWINNED_SCHEMES`, plus Figure 20's
   pollution-recording streamer run) on one longer trace where training
   dominates, asserts bit-identity against the object model (the
   pollution logs included), and
   gates the twins' advantage with its own
   ``--min-scheme-kernel-speedup`` floor.  A **multi-core leg** runs one
   4-core ``spp+dspatch`` mix through ``MultiCoreSystem`` on both
   kernels, where the compiled run schedules its cores in C, asserts
   bit-identity, and gates the ratio with ``--min-mp-kernel-speedup``;
2. **cold parallel** — empty disk cache, ``jobs=N``: the engine's
   process-pool fan-out (runs when ``--jobs`` > 1 is given explicitly,
   or by default on multicore hosts);
3. **warm** — in-process memo cleared, disk cache intact: every run is a
   content-addressed load from the store; the best of
   :data:`WARM_PASSES` passes, the memo cleared before each (one pass
   takes about 10-15 ms at ``--trace-len 1000``, where a single pass
   read under the 10x floor on scheduling noise now and then).

All regimes — including every kernel — must produce bit-for-bit
identical figure rows; the bench fails otherwise.  Machine-speed
differences are normalized away by a calibration loop (a fixed
pure-Python workload), yielding a ``hot_path_score`` = simulated-ops-
per-second / calibration-ops-per-second that is comparable across hosts
and across commits.  The committed baseline
(``benchmarks/baselines/engine_smoke_baseline.json``) records the score
of the pre-engine seed code and the score at the time the engine landed;
CI fails when the current score regresses more than ``--max-regression``
below the latter, or when the compiled kernel's advantage over the
object model falls below ``--min-kernel-speedup``.

Run directly (no pytest-benchmark dependency)::

    PYTHONPATH=src python benchmarks/bench_engine_speedup.py \
        --output BENCH_engine.json \
        --baseline benchmarks/baselines/engine_smoke_baseline.json
"""

import argparse
import json
import os
import sys
import tempfile
import time

SCHEMES = 6  # fig12: none + bop/sms/spp/dspatch/spp+dspatch
CATEGORIES = 9
#: The scheme-training leg: every twinned scheme shape, the Section 5.1
#: composites as component lists, and DSPatch configs read from slots:
#: sizes, the CovP reset, Figure 19's selections, anchoring and the
#: second trigger.
TWINNED_SCHEMES = (
    "spp", "dspatch", "spp+dspatch", "bop", "ebop", "sms", "streamer",
    "spp+bop", "spp+ebop", "spp+sms-256", "spp+bop+dspatch",
    "dspatch-spt128", "dspatch-noreset",
    "spp+alwayscovp", "spp+modcovp", "dspatch-noanchor", "dspatch-1trigger",
)
#: The leg's runs, ``(scheme, record_pollution_victims)``: each twin, then
#: Figure 20's streamer run with its pollution logs recorded in C.
SCHEME_LEG_RUNS = tuple((scheme, False) for scheme in TWINNED_SCHEMES) + (("streamer", True),)
#: The multi-core leg: one heterogeneous 4-core mix, ops per core.
MP_MIX = ("ispec06.mcf", "cloud.memcached", "hpc.npb-bt", "sysmark.excel")
MP_TRACE_LEN = 6000
#: Warm passes over the filled store; the warm leg is the fastest.
WARM_PASSES = 5


def calibrate(n=2_000_000, repeats=3):
    """Machine-speed proxy: median ops/sec of a fixed arithmetic loop."""
    rates = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(n):
            acc += i & 7
        rates.append(n / (time.perf_counter() - t0))
    return sorted(rates)[len(rates) // 2]


def _rows_of(fig):
    return {row: dict(cols) for row, cols in fig.rows.items()}


def run_bench(args):
    # Point the engine at a scratch store before importing anything that
    # might read the config.
    cache_dir = args.cache_dir or tempfile.mkdtemp(prefix="engine-bench-")
    os.environ["REPRO_CACHE_DIR"] = cache_dir

    from repro import engine
    from repro.engine import default_session
    from repro.experiments.figures import fig12_single_thread
    from repro.experiments.scale import Scale

    session = default_session()

    scale = Scale(
        trace_len=args.trace_len,
        workloads_per_category=args.workloads_per_category,
        mix_count=1,
        mix_trace_len=400,
        full=False,
    )
    sim_ops = SCHEMES * CATEGORIES * args.workloads_per_category * args.trace_len
    cpu_count = os.cpu_count() or 1
    jobs = args.jobs if args.jobs else cpu_count

    calibration = calibrate()

    # --- 1. kernel legs: cold sequential, best of N repeats each ----------
    from repro.kernel import kernel_available

    engine.configure(jobs=1, cache_dir=cache_dir, disk_cache=True)
    # kernel_available() pays the one-time .so build outside the timed
    # region.
    headline_kernel = "compiled" if kernel_available() else "object"

    kernel_seconds = {"compiled": None}
    kernel_rows = {}
    for kind in ("object", "compiled") if headline_kernel == "compiled" else ("object",):
        engine.configure(kernel=kind)
        best = None
        for _ in range(args.repeats):
            session.clear()  # both layers: a genuinely cold start
            t0 = time.perf_counter()
            fig = fig12_single_thread(scale)
            dt = time.perf_counter() - t0
            kernel_rows[kind] = _rows_of(fig)
            if best is None or dt < best:
                best = dt
        kernel_seconds[kind] = best
    engine.configure(kernel=headline_kernel)

    rows_seq = kernel_rows[headline_kernel]
    t_cold_seq = kernel_seconds[headline_kernel]
    hot_path_score = sim_ops / t_cold_seq / calibration
    kernel_speedup = kernel_seconds["object"] / t_cold_seq

    # --- 1b. scheme-training leg (compiled twins vs live objects) ---------
    # The fig12 smoke grid dilutes training across six schemes and nine
    # categories, so a broken training twin barely moves the headline
    # number.  This leg isolates the C-twinned schemes on one longer trace
    # where training dominates, asserts bit-identical results, every
    # prefetch counter included (and, for the pollution-recording run,
    # identical logs), and holds the twins to their own speedup floor.
    scheme_seconds = {"object": None, "compiled": None}
    scheme_speedup = None
    scheme_identical = True
    if headline_kernel == "compiled":
        from repro.cpu.system import System, SystemConfig
        from repro.workloads.catalog import build_trace

        scheme_trace = build_trace("ispec06.mcf", args.scheme_trace_len)
        scheme_results = {}
        for kind in ("object", "compiled"):
            best = None
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                out = []
                for scheme, record in SCHEME_LEG_RUNS:
                    res = System(
                        SystemConfig.single_thread(
                            scheme, kernel=kind, record_pollution_victims=record
                        )
                    ).run(scheme_trace)
                    # repr keeps the logs' element types in the comparison
                    out.append((
                        res.to_dict(),
                        repr(res.demand_log),
                        repr(res.prefetch_fill_log),
                        repr(res.pollution_events),
                    ))
                dt = time.perf_counter() - t0
                scheme_results[kind] = out
                if best is None or dt < best:
                    best = dt
            scheme_seconds[kind] = best
        scheme_identical = scheme_results["object"] == scheme_results["compiled"]
        scheme_speedup = scheme_seconds["object"] / scheme_seconds["compiled"]

    # --- 1c. multi-core leg (C scheduler + twins vs the object model) -----
    # Exact global-time interleaving of four cores on a shared LLC/DRAM:
    # with the scheme twinned, the compiled run is one scheduler call per
    # warmup boundary, so this leg pins the C scheduler's advantage.
    mp_seconds = {"object": None, "compiled": None}
    mp_speedup = None
    mp_identical = True
    if headline_kernel == "compiled":
        from repro.cpu.system import MultiCoreSystem, SystemConfig
        from repro.workloads.mixes import build_mix_traces

        mp_traces = build_mix_traces(MP_MIX, MP_TRACE_LEN)
        mp_results = {}
        for kind in ("object", "compiled"):
            cfg = SystemConfig.multi_programmed("spp+dspatch", kernel=kind)
            best = None
            for _ in range(args.repeats):
                t0 = time.perf_counter()
                mp = MultiCoreSystem(cfg).run(mp_traces)
                dt = time.perf_counter() - t0
                mp_results[kind] = [core.to_dict() for core in mp.per_core] + [mp.global_cycles]
                if best is None or dt < best:
                    best = dt
            mp_seconds[kind] = best
        mp_identical = mp_results["object"] == mp_results["compiled"]
        mp_speedup = mp_seconds["object"] / mp_seconds["compiled"]

    # --- 2. cold parallel (explicit --jobs > 1, or multicore hosts) -------
    t_cold_par = None
    rows_par = None
    if jobs > 1 and (args.jobs or cpu_count > 1):
        engine.configure(jobs=jobs)
        session.clear()
        t0 = time.perf_counter()
        rows_par = _rows_of(fig12_single_thread(scale))
        t_cold_par = time.perf_counter() - t0
        engine.configure(jobs=1)

    # --- 3. warm (disk cache hit for every run) ---------------------------
    if rows_par is not None:
        # Repopulate the store sequentially so the warm phase follows a
        # sequential cold phase regardless of the parallel experiment.
        session.clear()
        fig12_single_thread(scale)
    warm_rows = []
    t_warm = float("inf")
    for _ in range(WARM_PASSES):
        session.clear(disk=False)  # memo layers only; the disk store stays warm
        t0 = time.perf_counter()
        warm_rows.append(_rows_of(fig12_single_thread(scale)))
        t_warm = min(t_warm, time.perf_counter() - t0)

    deterministic = (
        all(rows == rows_seq for rows in warm_rows)
        and (rows_par is None or rows_par == rows_seq)
        and all(rows == rows_seq for rows in kernel_rows.values())
    )
    warm_speedup = t_cold_seq / t_warm if t_warm > 0 else float("inf")
    parallel_speedup = t_cold_seq / t_cold_par if t_cold_par else None

    result = {
        "protocol": {
            "driver": "fig12_single_thread",
            "trace_len": args.trace_len,
            "workloads_per_category": args.workloads_per_category,
            "repeats": args.repeats,
            "warm_passes": WARM_PASSES,
            "sim_ops": sim_ops,
            "jobs": jobs,
            "cpu_count": cpu_count,
            "kernel": headline_kernel,
        },
        "calibration_ops_per_sec": calibration,
        "cold_sequential_seconds": t_cold_seq,
        "cold_parallel_seconds": t_cold_par,
        "warm_seconds": t_warm,
        "kernel_object_seconds": kernel_seconds["object"],
        "kernel_compiled_seconds": kernel_seconds["compiled"],
        "scheme_object_seconds": scheme_seconds["object"],
        "scheme_compiled_seconds": scheme_seconds["compiled"],
        "scheme_kernel_speedup": scheme_speedup,
        "mp_object_seconds": mp_seconds["object"],
        "mp_compiled_seconds": mp_seconds["compiled"],
        "mp_kernel_speedup": mp_speedup,
        "hot_path_score": hot_path_score,
        "kernel_speedup": kernel_speedup,
        "parallel_speedup": parallel_speedup,
        "warm_speedup": warm_speedup,
        "deterministic": deterministic,
    }

    failures = []
    if not deterministic:
        failures.append("results differ between regimes/kernels (determinism violated)")
    if warm_speedup < 10.0:
        failures.append(f"warm-cache speedup {warm_speedup:.1f}x below the 10x target")
    if not scheme_identical:
        failures.append(
            "scheme-training leg: compiled twins diverge from the object model"
        )
    if scheme_speedup is not None and scheme_speedup < args.min_scheme_kernel_speedup:
        failures.append(
            f"scheme-training speedup {scheme_speedup:.2f}x over the object "
            f"model is below the {args.min_scheme_kernel_speedup:.1f}x floor"
        )
    if not mp_identical:
        failures.append("multi-core leg: the compiled run diverges from the object model")
    if mp_speedup is not None and mp_speedup < args.min_mp_kernel_speedup:
        failures.append(
            f"multi-core speedup {mp_speedup:.2f}x over the object model is "
            f"below the {args.min_mp_kernel_speedup:.1f}x floor"
        )

    if args.baseline and os.path.exists(args.baseline):
        with open(args.baseline) as f:
            baseline = json.load(f)
        seed_score = baseline.get("seed_hot_path_score")
        # The regression target must compare like with like: a compiled-
        # kernel score is gated against the compiled-era target when the
        # baseline records one; toolchain-less hosts (object model
        # headline) gate against the original engine-era target.
        target_score = baseline.get("target_hot_path_score")
        if headline_kernel == "compiled":
            target_score = baseline.get("target_hot_path_score_compiled", target_score)
        base_protocol = baseline.get("protocol", {})
        protocol_matches = all(
            base_protocol.get(key) == result["protocol"][key]
            for key in ("trace_len", "workloads_per_category")
            if key in base_protocol
        )
        if not protocol_matches:
            # Scores AND speedup ratios are only comparable under the
            # protocol they were recorded with (fixed per-run overhead is
            # scale-dependent, so ratios shrink at tiny --trace-len):
            # report everything but do not gate against a mismatched
            # baseline.
            result["note_baseline"] = (
                "baseline protocol differs from this run; regression and "
                "speedup-floor gates skipped"
            )
            target_score = None
        elif headline_kernel == "compiled" and kernel_speedup < args.min_kernel_speedup:
            failures.append(
                f"compiled-kernel speedup {kernel_speedup:.2f}x over the object "
                f"model is below the {args.min_kernel_speedup:.1f}x floor"
            )
        if seed_score:
            result["hot_path_speedup_vs_seed"] = hot_path_score / seed_score
            cold_vs_seed = hot_path_score / seed_score
            if parallel_speedup:
                cold_vs_seed *= parallel_speedup
            result["cold_speedup_vs_seed"] = cold_vs_seed
            if not protocol_matches:
                pass  # ratios reported above; floors need the recorded protocol
            elif parallel_speedup is not None and cpu_count > 1:
                # Parallel leg ran on a multicore host: the full 2x cold
                # target applies — hot-path gain x process-pool fan-out.
                if cold_vs_seed < 2.0:
                    failures.append(
                        f"cold speedup vs seed {cold_vs_seed:.2f}x below the 2x target"
                    )
            else:
                # Sequential measurement (single core, or --jobs 1): the
                # fan-out leg of the cold target cannot help, so gate on
                # the hot-path improvement floor alone.
                result["note"] = (
                    "single-core cold measurement: 2x cold target needs a "
                    "multicore host; gating on hot-path floor"
                )
                if cold_vs_seed < 1.4:
                    failures.append(
                        f"hot-path speedup vs seed {cold_vs_seed:.2f}x below 1.4x floor"
                    )
        if target_score:
            floor = target_score * (1.0 - args.max_regression)
            result["regression_gate"] = {
                "target_hot_path_score": target_score,
                "floor": floor,
                "passed": hot_path_score >= floor,
            }
            if hot_path_score < floor:
                failures.append(
                    f"hot-path score {hot_path_score:.6f} regressed >"
                    f"{100 * args.max_regression:.0f}% below baseline {target_score:.6f}"
                )

    result["failures"] = failures
    if args.output:
        # bench_tracegen.py merges a "tracegen" section into the same
        # artifact; preserve it instead of clobbering the file wholesale.
        if os.path.exists(args.output):
            try:
                with open(args.output) as f:
                    previous = json.load(f)
            except (OSError, json.JSONDecodeError):
                previous = {}
            if "tracegen" in previous:
                result["tracegen"] = previous["tracegen"]
        with open(args.output, "w") as f:
            json.dump(result, f, indent=2, sort_keys=True)

    print(f"cold sequential : {t_cold_seq:8.2f}s  ({sim_ops} sim-ops, kernel={headline_kernel})")
    print(f"object kernel   : {kernel_seconds['object']:8.2f}s")
    if kernel_seconds["compiled"] is not None:
        print(
            f"compiled kernel : {kernel_seconds['compiled']:8.2f}s  "
            f"({kernel_speedup:.2f}x over object)"
        )
    if scheme_speedup is not None:
        print(
            f"scheme training : {scheme_seconds['compiled']:8.2f}s vs "
            f"{scheme_seconds['object']:.2f}s object  ({scheme_speedup:.2f}x, "
            f"{args.scheme_trace_len} ops x {len(SCHEME_LEG_RUNS)} runs)"
        )
    if mp_speedup is not None:
        print(
            f"multi-core mix  : {mp_seconds['compiled']:8.2f}s vs "
            f"{mp_seconds['object']:.2f}s object  ({mp_speedup:.2f}x, "
            f"4 cores x {MP_TRACE_LEN} ops, spp+dspatch)"
        )
    if t_cold_par is not None:
        print(f"cold parallel   : {t_cold_par:8.2f}s  ({parallel_speedup:.2f}x, jobs={jobs})")
    print(f"warm (disk)     : {t_warm:8.3f}s  ({warm_speedup:.0f}x)")
    print(f"hot-path score  : {hot_path_score:.6f}  (calibration {calibration:.0f} ops/s)")
    for key in ("hot_path_speedup_vs_seed", "cold_speedup_vs_seed"):
        if key in result:
            print(f"{key:15s} : {result[key]:.2f}x")
    print(f"deterministic   : {deterministic}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("PASS")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--trace-len", type=int, default=4000)
    parser.add_argument("--workloads-per-category", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=0, help="0 = cpu count")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--cache-dir", default=None, help="default: fresh temp dir")
    parser.add_argument("--output", default="BENCH_engine.json")
    parser.add_argument(
        "--baseline",
        default=os.path.join(os.path.dirname(__file__), "baselines", "engine_smoke_baseline.json"),
    )
    parser.add_argument("--max-regression", type=float, default=0.2)
    parser.add_argument(
        "--min-kernel-speedup",
        type=float,
        default=2.0,
        help="floor on the compiled kernel's speedup over the object model "
        "(applies only when a C toolchain is present)",
    )
    parser.add_argument(
        "--scheme-trace-len",
        type=int,
        default=20000,
        help="ops per scheme in the dedicated scheme-training leg",
    )
    parser.add_argument(
        "--min-scheme-kernel-speedup",
        type=float,
        default=5.0,
        help="floor on the compiled training twins' speedup over the object "
        "model in the scheme-training leg (applies only when a C toolchain "
        "is present)",
    )
    parser.add_argument(
        "--min-mp-kernel-speedup",
        type=float,
        default=12.0,
        help="floor on the compiled kernel's speedup over the object model "
        "in the multi-core leg (applies only when a C toolchain is present)",
    )
    return run_bench(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
