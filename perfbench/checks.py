"""Per-spec result checks and the simulation digest.

A spec fails when it raised, when its quality counters fail the validity
gates of ``repro.metrics.quality``, when it breaks one of the result
invariants below, or when its result reloaded from the pass's store
differs from the one computed.  The invariants were checked to hold on
every spec of every workload before this benchmark gated on them:

- late prefetches never exceed useful ones (a validity gate);
- coverage and every bandwidth-residency share lie in [0, 1];
- the per-level hit counts sum to the measured-region memory ops (trace
  length minus the warmup ops).

Useful <= issued (and so accuracy <= 1) is *not* checked: a prefetch
issued during warmup can turn useful after the statistics reset, so a
few streaming runs report slightly more useful than issued prefetches.
"""

import hashlib
import json
import math

from repro.cpu.system import SystemConfig
from repro.engine import MixSpec
from repro.engine.compute import load_artifact
from repro.metrics.quality import counters_from_result, validity_issues
from repro.workloads.mixes import build_mix_traces

_WARMUP_FRAC = SystemConfig().warmup_frac
_LOGS = ("pollution_events", "demand_log", "prefetch_fill_log")


def trace_lengths(session, spec):
    """Memory ops per core the spec simulates (one entry per core)."""
    if isinstance(spec, MixSpec):
        return [len(t) for t in build_mix_traces(list(spec.workloads), spec.length_per_core)]
    return [len(session.trace(spec.trace_spec))]


def _core_issues(result, n_ops):
    issues = list(validity_issues(counters_from_result(result)))
    rates = [result.coverage, *result.bw_utilization_residency]
    if any(not 0.0 <= rate <= 1.0 for rate in rates):
        issues.append(f"rate outside [0, 1] in {rates}")
    measured = n_ops - int(n_ops * _WARMUP_FRAC)
    hits = sum(result.level_hits.values())
    if hits != measured:
        issues.append(f"level hits sum to {hits}, measured ops are {measured}")
    return issues


def _per_core(result):
    return result.per_core if hasattr(result, "per_core") else [result]


def _same(a, b):
    if hasattr(a, "per_core"):
        return a.global_cycles == b.global_cycles and len(a.per_core) == len(b.per_core) and all(
            _same(x, y) for x, y in zip(a.per_core, b.per_core)
        )
    return a.to_dict() == b.to_dict() and all(
        list(getattr(a, log)) == list(getattr(b, log)) for log in _LOGS
    )


def spec_issues(spec, result, n_ops, store):
    """Every check failure for one computed spec (empty = it passed)."""
    issues = []
    for core, n in zip(_per_core(result), n_ops):
        issues.extend(_core_issues(core, n))
    reloaded = load_artifact(spec, store)
    if reloaded is None:
        issues.append("result missing from the pass's store")
    elif not _same(reloaded, result):
        issues.append("result reloaded from the store differs from the computed one")
    return issues


def sim_counts(outcomes):
    """Simulated totals over every computed spec (identical on every pass).

    ``spp_dspatch_gain_pct`` is the geometric-mean gain of DSPatch+SPP
    over SPP (IPC for single-core runs, weighted speedup over the
    baseline alone-IPCs for mixes); 0 where the workload runs neither.
    """
    totals = dict.fromkeys(
        ("instructions", "l2_demand_misses", "pf_issued", "pf_useful", "dram_reads",
         "pollution_events"), 0
    )
    alone = {}
    by_scheme = {}
    for spec, result, _ in outcomes:
        if result is None:
            continue
        for core in _per_core(result):
            for name in totals:
                value = getattr(core, name)
                totals[name] += len(value) if name == "pollution_events" else value
        if isinstance(spec, MixSpec):
            by_scheme[(spec.mix_name, spec.workloads, spec.dram, spec.llc_bytes, spec.scheme)] = result
        else:
            if spec.scheme == "none":
                alone[(spec.workload, spec.dram, spec.llc_bytes)] = result.ipc
            by_scheme[(spec.workload, spec.dram, spec.llc_bytes, spec.scheme)] = result
    log_sum = 0.0
    pairs = 0
    for key, result in by_scheme.items():
        base = by_scheme.get(key[:-1] + ("spp",))
        if key[-1] != "spp+dspatch" or base is None:
            continue
        if hasattr(result, "per_core"):
            _, names, dram, llc, _ = key
            ipcs = [alone[(name, dram, llc)] for name in names]
            ratio = result.weighted_speedup(ipcs) / base.weighted_speedup(ipcs)
        else:
            ratio = result.ipc / base.ipc
        log_sum += math.log(ratio)
        pairs += 1
    totals["spp_dspatch_gain_pct"] = 100.0 * (math.exp(log_sum / pairs) - 1.0) if pairs else 0.0
    return totals


def spec_key(spec):
    dram = f"{spec.dram.speed_grade}x{spec.dram.channels}"
    if isinstance(spec, MixSpec):
        return f"mix|{spec.mix_name}|{','.join(spec.workloads)}|{spec.scheme}|" \
               f"{spec.length_per_core}|{dram}|{spec.llc_bytes}"
    return f"run|{spec.workload}|{spec.scheme}|{spec.length}|{dram}|" \
           f"{spec.llc_bytes}|{int(spec.record_pollution)}"


def _result_view(result):
    if hasattr(result, "per_core"):
        return {
            "global_cycles": result.global_cycles,
            "per_core": [_result_view(core) for core in result.per_core],
        }
    view = result.to_dict()
    for log in _LOGS:
        entries = getattr(result, log)
        view[log] = [len(entries), hashlib.sha256(repr(list(entries)).encode()).hexdigest()]
    return view


def sim_digest(outcomes):
    """Hash over every spec's sorted ``to_dict()`` output and logs.

    Spec keys name the experiment, not its engine fingerprint (which
    salts in the source code), so the digest of a speed-only change
    matches its parent's exactly.
    """
    rows = sorted(
        [spec_key(spec), None if result is None else _result_view(result)]
        for spec, result, _ in outcomes
    )
    blob = json.dumps(rows, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
