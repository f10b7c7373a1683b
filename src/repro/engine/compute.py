"""Computation layer: pure simulation plus the store's save/load shape.

Everything here is spec-driven and touches no store on its own:

- **pure compute** (:func:`simulate`) — one spec's result, no caching.
  Results are bit-for-bit identical whether computed in-process, by a
  pool worker, or loaded back from any store backend;
- **store access** (:func:`load_artifact`, :func:`save_artifact`) — one
  result under its spec's content-addressed fingerprint, in a
  :class:`~repro.engine.backends.StoreBackend` the caller passes.
  :class:`repro.engine.session.Session` calls them in its own process;
  pool workers only simulate.

A trace is an input, not a stored artifact: :func:`simulate` takes each
trace a spec needs from the trace memo it is given
(:func:`repro.workloads.catalog.memoized_trace`), and no backend ever
sees it.  A seeded build costs less than loading a stored copy would.
"""

from repro.cpu.system import MultiCoreSystem, System, SystemConfig
from repro.engine.specs import RunSpec
from repro.workloads import mixes
from repro.workloads.catalog import memoized_trace


def simulate(spec, trace_memo):
    """One spec's result: a single-core run or a multi-programmed mix,
    on traces from ``trace_memo`` (the ones it lacks are built into it)."""
    if isinstance(spec, RunSpec):
        config = SystemConfig.single_thread(
            spec.scheme,
            dram=spec.dram,
            llc_bytes=spec.llc_bytes,
            record_pollution_victims=spec.record_pollution,
        )
        return System(config).run(memoized_trace(trace_memo, spec.workload, spec.length))
    config = SystemConfig.multi_programmed(spec.scheme, dram=spec.dram, llc_bytes=spec.llc_bytes)
    traces = mixes.build_mix_traces(spec.workloads, spec.length_per_core, trace_memo)
    return MultiCoreSystem(config).run(traces)


def load_artifact(spec, backend):
    """Probe ``backend`` for one spec's result; ``None`` on a miss."""
    return None if backend is None else backend.load_result(spec.fingerprint())


def save_artifact(spec, result, backend):
    """Persist one computed result under its spec's fingerprint."""
    if backend is not None:
        backend.save_result(spec.fingerprint(), result)

