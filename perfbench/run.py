"""Cold-simulation benchmark of the DSPatch reproduction.

    python3 perfbench/run.py --workload st-grid --seed 1 --seconds 35 --trace 0

Each run sets up once, then computes the workload's seeded spec list
cold (fresh session, empty local-disk store, ``jobs=1``) pass after pass
until ``--seconds`` of pass time is spent, checking every result.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer ledger from passes timed through :mod:`ledger`.  Every metric
is printed with its unit; the last line is one JSON object.  See
``perfbench/README.md`` for the workloads, metrics and seeds.
"""

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

import bootstrap

bootstrap.import_repro()

import checks  # noqa: E402 - these import repro from the checkout
import ledger  # noqa: E402
import suite  # noqa: E402
from repro.kernel import cbuild  # noqa: E402

#: Set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 7
#: Longest one set-up probe may take before it is killed.
PROBE_TIMEOUT_S = 60
#: The traced pass must attribute all but this share of its host time.
MAX_UNATTRIBUTED_PCT = 10.0

END_TO_END_UNITS = {"wall_s": "s", "sim_ops_per_s": "ops/s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(suite.PLANS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative (it seeds the mix draw)")
    return args


def measure_setup(count):
    """Median host seconds from process start to a ready engine."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(__file__), "bootstrap.py")],
            stdout=subprocess.PIPE,
            text=True,
            cwd=bootstrap.ROOT,
        )
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return statistics.median(times)


def _tree_mb(path):
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, name)) for name in files)
    return total / 2**20


class Runner:
    """Cold passes of one plan, each checked against its own store."""

    def __init__(self, plan):
        self.plan = plan
        self.store_dir = bootstrap.WORK / f"store-{os.getpid()}"
        self._n_ops = {}

    def _lengths(self, session, spec):
        if spec not in self._n_ops:
            self._n_ops[spec] = checks.trace_lengths(session, spec)
        return self._n_ops[spec]

    def run_pass(self, traced):
        """One cold pass: (wall seconds, outcomes, failures, ledger, stored MB).

        ``failures`` maps the key of each failed spec to its issues.
        """
        shutil.rmtree(self.store_dir, ignore_errors=True)
        session, store = bootstrap.open_session(self.store_dir)
        gc.collect()
        spans = ledger.Ledger() if traced else None
        with spans or contextlib.nullcontext():
            start = time.perf_counter()
            outcomes = self.plan.run(session)
            wall = time.perf_counter() - start
        failures = {}
        for spec, result, error in outcomes:
            if error is None:
                issues = checks.spec_issues(spec, result, self._lengths(session, spec), store)
            else:
                issues = [error]
            if issues:
                failures[checks.spec_key(spec)] = issues
        stored_mb = _tree_mb(self.store_dir)
        shutil.rmtree(self.store_dir, ignore_errors=True)
        return wall, outcomes, failures, spans, stored_mb

    def sim_ops(self, outcomes):
        """Simulated memory ops of one pass: trace length x cores, summed."""
        return sum(sum(self._n_ops[spec]) for spec, _, _ in outcomes if spec in self._n_ops)


def layer_metrics(passes, untraced_wall, counts):
    """Per-layer ledger: medians over the traced passes."""
    rows = []
    for wall, spans, stored_mb in passes:
        secs = spans.self_seconds()
        calls = spans.calls()
        n = spans.counts
        loads = calls["engine.load"]
        batches = n["cpu.batches"]
        rows.append({
            "workloads.build_s": secs["workloads.build"],
            "workloads.traces": n["workloads.traces"],
            "engine.session_s": secs["engine.session"],
            "engine.save_s": secs["engine.save"],
            "engine.saves": calls["engine.save"],
            "engine.saved_mb": stored_mb,
            "engine.load_s": secs["engine.load"],
            "engine.loads": loads,
            "engine.load_hit_ratio": n["engine.load_hits"] / loads if loads else 0.0,
            "cpu.build_s": secs["cpu.build"],
            "cpu.run_self_s": secs["cpu.run"],
            "cpu.schedule_s": secs["cpu.schedule"],
            "cpu.batches": batches,
            "cpu.ops_per_batch": n["cpu.batch_ops"] / batches if batches else 0.0,
            "kernel.pack_s": secs["kernel.pack"],
            "kernel.loop_s": secs["kernel.loop"],
            "kernel.calls": calls["kernel.loop"],
            "kernel.writeback_s": secs["kernel.writeback"],
            "prefetchers.train_s": secs[ledger.TRAIN_LAYER],
            "prefetchers.train_calls": calls[ledger.TRAIN_LAYER],
            "memory.object_loop_s": secs["memory.object_loop"],
            "bench.unattributed_pct": 100.0 * (wall - spans.covered_seconds()) / wall,
        })
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["memory.pollution_events"] = counts["pollution_events"]
    for name in ("instructions", "l2_demand_misses", "pf_issued", "pf_useful", "dram_reads",
                 "spp_dspatch_gain_pct"):
        metrics[f"metrics.{name}"] = counts[name]
    traced_wall = statistics.median(wall for wall, _, _ in passes)
    metrics["bench.trace_overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
    metrics["bench.absent_hooks"] = len(passes[-1][1].absent)
    return metrics


def unit_of(name):
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_per_batch"):
        return "ops"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    bootstrap.ready()
    print(f"kernel: compiled ({cbuild.artifact_path().name})")
    if args.workload == "st-pollution":
        print("kernel: st-pollution records pollution, so it runs the object path by design")
    setup_s = None if args.trace else measure_setup(SETUP_PROBES)

    # A short untimed pass imports and warms everything a pass touches.
    Runner(suite.build_plan(args.workload, args.seed, scale=40)).run_pass(traced=False)

    plan = suite.build_plan(args.workload, args.seed)
    runner = Runner(plan)
    untraced, traced = [], []
    digests = set()
    attempted = failed = 0
    counts = None
    spent = 0.0
    last_wall = 0.0
    # Stop before a pass that would overrun --seconds, once every kind of
    # pass the mode needs has run.
    while spent + last_wall <= args.seconds or not untraced or (args.trace and not traced):
        trace_this = bool(args.trace) and len(traced) < len(untraced)
        wall, outcomes, failures, spans, stored_mb = runner.run_pass(trace_this)
        spent += wall
        last_wall = wall
        attempted += len(outcomes)
        failed += len(failures)
        for key, issues in failures.items():
            print(f"FAILED {key}: {'; '.join(issues)}", file=sys.stderr)
        digests.add(checks.sim_digest(outcomes))
        if counts is None:
            counts = checks.sim_counts(outcomes)
            ops = runner.sim_ops(outcomes)
        if trace_this:
            traced.append((wall, spans, stored_mb))
        else:
            untraced.append(wall)
        # Free this pass's results before the next one, so peak RSS is
        # one pass's worth whatever the pass count.
        del outcomes

    wall_s = statistics.median(untraced)
    if args.trace:
        metrics = layer_metrics(traced, wall_s, counts)
        last = traced[-1][1]
        last.write(bootstrap.WORK / f"spans-{args.workload}.json")
        for name in last.absent:
            print(f"ledger: hook {name} is absent; its layer reads 0")
        if metrics["bench.unattributed_pct"] > MAX_UNATTRIBUTED_PCT:
            print(f"perfbench: {metrics['bench.unattributed_pct']:.1f}% of the traced pass "
                  "is unattributed", file=sys.stderr)
    else:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        metrics = {
            "wall_s": wall_s,
            "sim_ops_per_s": ops / wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }

    # Every pass, traced or not, must reproduce the same simulation.
    correct = failed == 0 and len(digests) == 1
    digest = ",".join(sorted(digests))
    print(f"workload: {args.workload} seed {args.seed}; {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(plan.specs)} specs, {ops} simulated ops each")
    print("pass walls: " + " ".join(f"{w:.3f}" for w in untraced) + " s untraced; "
          + " ".join(f"{t[0]:.3f}" for t in traced) + " s traced")
    print(f"sim_digest: {digest}")
    print(f"specs: {attempted} attempted, {failed} failed")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
