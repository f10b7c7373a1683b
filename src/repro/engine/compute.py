"""Computation layer: pure simulation plus the store's save/load shape.

Everything here is spec-driven and touches no store on its own:

- **pure compute** (:func:`simulate`, over :func:`simulate_run` and
  :func:`simulate_mix`) — the exact pre-engine sequential code path
  (same construction order, same arithmetic), no caching.  Results are
  bit-for-bit identical whether computed in-process, by a pool worker,
  or loaded back from any store backend;
- **store access** (:func:`load_artifact`, :func:`save_artifact`) — one
  result under its spec's content-addressed fingerprint, in a
  :class:`~repro.engine.backends.StoreBackend` the caller passes.
  :class:`repro.engine.session.Session` calls them in its own process;
  pool workers only simulate.

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


def simulate(spec, trace_memo):
    """One spec's result: a run on its memoized trace, or a mix."""
    if isinstance(spec, RunSpec):
        return simulate_run(spec, produce_trace_with(spec.trace_spec, trace_memo))
    return simulate_mix(spec)


# -- store access and traces ------------------------------------------------


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
