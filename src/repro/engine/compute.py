"""Computation layer: pure simulation plus store-aware production.

Two levels live here, both spec-driven:

- **pure compute** (:func:`build_trace_artifact`, :func:`simulate_run`,
  :func:`simulate_mix`) — the exact pre-engine sequential code path
  (same construction order, same arithmetic), no caching.  Results are
  bit-for-bit identical whether computed in-process, by a pool worker,
  or loaded back from any store backend;
- **store-aware production** (:func:`produce_run_with`,
  :func:`produce_mix_with`) — consult a
  :class:`~repro.engine.backends.StoreBackend` under the spec's
  content-addressed fingerprint, compute on a miss, write the fresh
  result back.  These are what :class:`repro.engine.session.Session`
  (and its pool workers) execute.

A trace is an input, not a stored artifact: :func:`produce_trace_with`
serves it from an in-process memo or builds it, and no backend ever
sees it.  A seeded build costs less than loading a stored copy would.
"""

from repro.cpu.system import MultiCoreSystem, System, SystemConfig
from repro.engine.specs import RunSpec

#: In-process trace memo of the **default session** (kept at module level
#: so forked pool workers inherit the traces the parent already built).
#: Explicit sessions own private memos instead.
TRACE_MEMO = {}


# -- pure compute (no caching) ---------------------------------------------


def build_trace_artifact(spec):
    """Generate one workload trace exactly as the catalog builds it."""
    from repro.workloads.catalog import WORKLOADS

    return WORKLOADS[spec.workload].build(spec.length)


def simulate_run(spec, trace):
    """One single-core run of ``trace`` on the machine ``spec`` describes."""
    config = SystemConfig.single_thread(
        spec.scheme,
        dram=spec.dram,
        llc_bytes=spec.llc_bytes,
        record_pollution_victims=spec.record_pollution,
    )
    return System(config).run(trace)


def simulate_mix(spec):
    """One multi-programmed run of the mix ``spec`` describes.

    Executes through :class:`MultiCoreSystem`, scheduled by
    ``repro.cpu.core.interleave_two_level``; the engine's code-version salt
    covers ``cpu/``, so any driver change invalidates previously cached
    mix results automatically.
    """
    from repro.workloads.mixes import build_mix_traces

    config = SystemConfig.multi_programmed(
        spec.scheme, dram=spec.dram, llc_bytes=spec.llc_bytes
    )
    traces = build_mix_traces(list(spec.workloads), spec.length_per_core)
    return MultiCoreSystem(config).run(traces)


# -- store-aware production ------------------------------------------------


def load_artifact(spec, backend):
    """Probe ``backend`` for one spec's result; ``None`` on a miss."""
    return None if backend is None else backend.load_result(spec.fingerprint())


def save_artifact(spec, result, backend):
    """Persist one computed result under its spec's fingerprint."""
    if backend is None:
        return
    if isinstance(spec, RunSpec):
        meta = {
            "kind": "run",
            "workload": spec.workload,
            "scheme": spec.scheme,
            "length": spec.length,
        }
    else:
        meta = {
            "kind": "mix",
            "mix": spec.mix_name,
            "scheme": spec.scheme,
            "length": spec.length_per_core,
        }
    backend.save_result(spec.fingerprint(), result, meta=meta)


def produce_trace_with(spec, memo):
    """One trace: the memo's copy, else a fresh build, memoized."""
    key = (spec.workload, spec.length)
    trace = memo.get(key)
    if trace is None:
        trace = memo[key] = build_trace_artifact(spec)
    return trace


def produce_run_with(spec, backend, trace_memo):
    """Load-or-compute one single-core run; returns a ``RunResult``."""
    result = load_artifact(spec, backend)
    if result is None:
        result = simulate_run(spec, produce_trace_with(spec.trace_spec, trace_memo))
        save_artifact(spec, result, backend)
    return result


def produce_mix_with(spec, backend):
    """Load-or-compute one mix; returns a ``MultiProgramResult``."""
    result = load_artifact(spec, backend)
    if result is None:
        result = simulate_mix(spec)
        save_artifact(spec, result, backend)
    return result
