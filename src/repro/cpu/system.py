"""System drivers: single-core and 4-core multi-programmed simulation.

Mirrors the paper's two configurations (Section 4):

- **ST** — one core, private L1/L2, 2MB LLC, one DDR4 channel.
- **MP** — four cores, private L1/L2 per core, shared 8MB LLC, two DDR4
  channels (same LLC capacity per core, half the bandwidth per core).

Both run through one driver, :func:`_simulate`; a single-thread run is
its one-core case.  It interleaves per-core executions in global time
order (always advancing the core with the smallest retirement time, via
:func:`repro.cpu.core.interleave_two_level` or, on the compiled kernel,
its C twin) so cores contend
realistically for the shared LLC and DRAM — which is what makes the
accuracy-biased pattern matter in Section 5.4.  Each core runs either on
the object model (``MemoryHierarchy`` + ``CoreExecution``, the spec) or
on its compiled twin (:mod:`repro.kernel`); see docs/engine.md.
"""

import gc
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.cpu.core import CoreExecution, CoreModel, interleave_two_level
from repro.memory.cache import Cache
from repro.constants import MP_LLC_BYTES, ST_LLC_BYTES
from repro.memory.dram import (
    MP_DRAM,
    ST_DRAM,
    DramConfig,
    DramModel,
    achieved_gbps,
    bucket_residency,
)
from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy, coverage_accuracy
from repro.memory.observed import ObservedHierarchy
from repro.observe.sinks import CoreScopedSink, LineSink
from repro.prefetchers.base import flush_training_with_cycle
from repro.prefetchers.registry import build_prefetcher
from repro.prefetchers.stride import PcStridePrefetcher


@dataclass(frozen=True)
class SystemConfig:
    """One simulated machine configuration."""

    hierarchy: HierarchyConfig = HierarchyConfig()
    dram: DramConfig = DramConfig()
    core: CoreModel = CoreModel()
    #: Registry name of the L2 prefetcher scheme ("none" for the baseline).
    l2_prefetcher: str = "none"
    #: Whether the baseline L1 PC-stride prefetcher is present (Table 2).
    l1_stride: bool = True
    record_pollution_victims: bool = False
    #: Opt-in event tracing (docs/observability.md).  Neither flag enters
    #: spec fingerprints — tracing never forks the content-addressed
    #: cache — and with both off the drivers build the plain
    #: uninstrumented hierarchy, so results stay bit-identical.
    trace_prefetch: bool = False
    trace_cache: bool = False
    #: Fraction of the trace used to warm caches/predictors before the
    #: measured region starts — the standard warmup-then-measure
    #: methodology of the paper's simulator.  Structures keep their state
    #: across the boundary; only statistics reset.
    warmup_frac: float = 0.25
    #: Hot-loop kernel, one of ``engine.config.KERNEL_CHOICES``: "auto"
    #: defers to the engine config (REPRO_KERNEL / ``repro --kernel``,
    #: itself defaulting to the compiled kernel when a C toolchain is
    #: present and the object model otherwise); "compiled" forces the
    #: generated-C twin, "object" the object model.  Both are bit-identical
    #: (pinned by tests/test_kernel_parity.py) and the field never enters
    #: spec fingerprints, so results share cache entries across kernels.
    #: Event-traced runs (``trace_prefetch``/``trace_cache``) use the
    #: object model regardless; pollution recording runs compiled too,
    #: the kernel recording the same logs.  A compiled run lays its state
    #: out from this config, builds only the L2 scheme object and reads
    #: its results from the kernel's counters.
    kernel: str = "auto"

    @staticmethod
    def single_thread(l2_prefetcher="none", dram=None, llc_bytes=ST_LLC_BYTES, **kwargs):
        """The paper's ST configuration: 2MB LLC, single channel."""
        hierarchy = HierarchyConfig().scaled_llc(llc_bytes)
        return SystemConfig(
            hierarchy=hierarchy,
            dram=dram or ST_DRAM,
            l2_prefetcher=l2_prefetcher,
            **kwargs,
        )

    @staticmethod
    def multi_programmed(l2_prefetcher="none", dram=None, llc_bytes=MP_LLC_BYTES, **kwargs):
        """The paper's MP configuration: shared 8MB LLC, two channels."""
        hierarchy = HierarchyConfig().scaled_llc(llc_bytes)
        return SystemConfig(
            hierarchy=hierarchy,
            dram=dram or MP_DRAM,
            l2_prefetcher=l2_prefetcher,
            **kwargs,
        )


@dataclass
class RunResult:
    """Everything a single-core run produces."""

    ipc: float
    instructions: int
    cycles: float
    coverage: float
    accuracy: float
    pf_issued: int
    pf_useful: int
    pf_late: int
    pf_useless: int
    l2_demand_misses: int
    dram_reads: int
    bw_utilization_residency: list
    achieved_gbps: float
    level_hits: dict = field(default_factory=dict)
    pollution_events: list = field(default_factory=list)
    demand_log: list = field(default_factory=list)
    prefetch_fill_log: list = field(default_factory=list)

    @property
    def mpki(self):
        """L2 demand misses per kilo-instruction."""
        return 1000.0 * self.l2_demand_misses / self.instructions if self.instructions else 0.0

    def to_dict(self):
        """JSON-serializable summary (scalar metrics only, no logs)."""
        return {
            "ipc": self.ipc,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "coverage": self.coverage,
            "accuracy": self.accuracy,
            "mpki": self.mpki,
            "pf_issued": self.pf_issued,
            "pf_useful": self.pf_useful,
            "pf_late": self.pf_late,
            "pf_useless": self.pf_useless,
            "l2_demand_misses": self.l2_demand_misses,
            "dram_reads": self.dram_reads,
            "achieved_gbps": self.achieved_gbps,
            "bw_utilization_residency": list(self.bw_utilization_residency),
            "level_hits": dict(self.level_hits),
        }


@contextmanager
def _gc_paused():
    """Pause cyclic GC for the duration of a simulation run.

    The hot loop allocates heavily (cache lines, candidates, tuples) but
    creates no reference cycles, so generational collections only add
    pause time; refcounting reclaims everything promptly and any cycles
    are collected when GC resumes after the run.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _resolve_kernel(cfg):
    """Concrete hot-loop engine for this run: "object" or "compiled".

    Resolution: an explicit ``SystemConfig.kernel`` wins; "auto" defers to
    the engine config (``repro --kernel`` / ``REPRO_KERNEL``); a still
    unresolved "auto" picks "compiled" when the kernel builds and the
    object model otherwise.  Event-traced runs use the object model
    whatever was selected: their event stream exists only there.
    Pollution recording does not force it, since the kernel records the
    same three logs.  An *explicit* "compiled" without a working kernel
    raises; "auto" degrades to the object model, quietly for a missing
    toolchain and with a warning for a broken build.  Any other name
    raises.
    """
    # Lazy import: repro.cpu must stay importable without the engine.
    from repro.engine.config import KERNEL_CHOICES, current_config

    choice = cfg.kernel
    if choice not in KERNEL_CHOICES:
        raise ValueError(f"SystemConfig.kernel={choice!r} is not one of {KERNEL_CHOICES}")
    if choice == "auto":
        choice = current_config().kernel
    if choice == "object" or cfg.trace_prefetch or cfg.trace_cache:
        return "object"
    from repro.kernel import kernel_available
    from repro.kernel.execution import kernel_unavailable_reason

    if kernel_available():
        return "compiled"
    kind, reason = kernel_unavailable_reason()
    if choice == "compiled":
        if kind == "toolchain":
            raise RuntimeError(
                "kernel='compiled' requested but no C toolchain is available "
                "(set kernel='object' or 'auto' to run the object model)"
            )
        raise RuntimeError(f"kernel='compiled' requested but the kernel failed to build: {reason}")
    if kind == "build":
        # A missing toolchain degrades quietly; a broken build is a bug
        # and must not be mistaken for one.
        _warn_kernel_degraded(reason)
    return "object"


_warned_kernel_degraded = False


def _warn_kernel_degraded(reason):
    global _warned_kernel_degraded
    if _warned_kernel_degraded:
        return
    _warned_kernel_degraded = True
    import warnings

    warnings.warn(
        f"compiled kernel unavailable, falling back to the object model: {reason}",
        RuntimeWarning,
        stacklevel=3,
    )


def _resolve_sink(cfg, sink):
    """The sink a run should emit to, or ``None`` when tracing is off."""
    if not (cfg.trace_prefetch or cfg.trace_cache):
        return None
    if sink is not None:
        return sink
    import sys

    return LineSink(sys.stderr)


def _make_hierarchy(cfg, dram, llc, l1_pf, l2_pf, sink):
    """Build the object model's hierarchy for one core: plain when
    nothing observes it.

    The split class is the no-overhead guarantee: with tracing off and no
    pollution recording this returns the exact pre-instrumentation
    :class:`MemoryHierarchy`, so the hot path carries zero new branches
    (asserted by ``benchmarks/bench_observe_overhead.py``).
    """
    if sink is None and not cfg.record_pollution_victims:
        return MemoryHierarchy(
            config=cfg.hierarchy,
            dram=dram,
            llc=llc,
            l1_prefetcher=l1_pf,
            l2_prefetcher=l2_pf,
        )
    return ObservedHierarchy(
        config=cfg.hierarchy,
        dram=dram,
        llc=llc,
        l1_prefetcher=l1_pf,
        l2_prefetcher=l2_pf,
        sink=sink,
        trace_prefetch=cfg.trace_prefetch,
        trace_cache=cfg.trace_cache,
        record_pollution_victims=cfg.record_pollution_victims,
    )


def _run_result(stats, pf, l2_demand_misses, logs, dram_config, dram):
    """One core's :class:`RunResult` from its counters, whichever kernel ran.

    ``stats`` is the core's measured-region
    :class:`~repro.cpu.core.CoreStats`, ``pf`` its
    :class:`~repro.memory.hierarchy.PrefetchStats`, ``logs`` its
    ``(demand_log, prefetch_fill_log, pollution_events)`` and ``dram`` the
    run's :class:`~repro.memory.dram.DramCounters`.  The object path
    feeds it from its objects (:func:`_result_from`), the compiled path
    from the kernel's flat counters, so coverage/accuracy, residency and
    achieved bandwidth each have one definition.
    """
    coverage, accuracy, _base = coverage_accuracy(pf, l2_demand_misses)
    demand_log, fill_log, victims = logs
    return RunResult(
        ipc=stats.ipc,
        instructions=stats.instructions,
        cycles=stats.cycles,
        coverage=coverage,
        accuracy=accuracy,
        pf_issued=pf.issued,
        pf_useful=pf.useful,
        pf_late=pf.late,
        pf_useless=pf.useless,
        l2_demand_misses=l2_demand_misses,
        dram_reads=dram.reads,
        bw_utilization_residency=bucket_residency(dram.bucket_cycles),
        achieved_gbps=achieved_gbps(dram_config, dram, stats.cycles),
        level_hits=dict(stats.level_hits),
        pollution_events=list(victims),
        demand_log=list(demand_log),
        prefetch_fill_log=list(fill_log),
    )


def _result_from(execution, hierarchy, dram):
    """One object-model core's :class:`RunResult` (see :func:`_run_result`)."""
    logs = (hierarchy.demand_log, hierarchy.prefetch_fill_log, hierarchy.pollution_events)
    return _run_result(
        execution.finalize(),
        hierarchy.pf_stats,
        hierarchy.l2.demand_misses,
        logs,
        dram.config,
        dram.counters(),
    )


def _simulate(cfg, traces, sinks):
    """Run one trace per core over one LLC and DRAM; the only run driver.

    Builds the DRAM model and, per :func:`_resolve_kernel`, either the
    object model — one LLC, and a hierarchy plus :class:`CoreExecution`
    per core (each with that core's sink) — or its compiled twin, laid out
    straight from the config (one :class:`KernelDomain` and a
    :class:`KernelExecution` per core; only each core's L2 scheme object
    is built).  It schedules every core through
    :func:`interleave_two_level` — or, compiled, through its C twin
    ``KernelDomain.interleave``.  Each core crosses its own warmup
    boundary after ``warmup_frac`` of its trace — before the first op
    when the warmup is zero ops; shared DRAM stats reset when the first
    core crosses (per-core results use private hierarchy counters, so the
    shared reset point is not critical).  Results come from the objects'
    or the kernel's counters through one function (:func:`_run_result`).
    The object path then drains each core's residual training
    (``flush_training``); a compiled run neither drains nor writes back,
    since nothing can read its scheme state after it returns.

    Returns the per-core :class:`RunResult` list and the global measured
    span (see :attr:`MultiProgramResult.global_cycles`).
    """
    kernel = _resolve_kernel(cfg) == "compiled"
    dram = DramModel(cfg.dram)
    if kernel:
        from repro.kernel.execution import KernelBandwidth, KernelDomain, KernelExecution

        domain = KernelDomain(cfg.hierarchy.llc, dram)
        # Bandwidth-aware schemes must read the *live* monitor, which lives
        # in the kernel domain for the whole run.
        bandwidth = KernelBandwidth(dram)
        bandwidth.attach(domain)
        executions = [
            KernelExecution(
                cfg,
                trace,
                domain,
                record_pollution=cfg.record_pollution_victims,
                l2_prefetcher=build_prefetcher(cfg.l2_prefetcher, bandwidth),
            )
            for trace in traces
        ]
        # The kernel's flat state is the truth, so the warmup-boundary
        # resets act on it.
        reset_hierarchy = [kex.reset_hierarchy_stats for kex in executions]
        reset_dram = domain.reset_dram_stats
        interleave = domain.interleave
    else:
        llc = Cache(cfg.hierarchy.llc)
        hierarchies = []
        executions = []
        for trace, sink in zip(traces, sinks):
            l1_pf = PcStridePrefetcher() if cfg.l1_stride else None
            l2_pf = build_prefetcher(cfg.l2_prefetcher, dram)
            hierarchy = _make_hierarchy(cfg, dram, llc, l1_pf, l2_pf, sink)
            hierarchies.append(hierarchy)
            executions.append(CoreExecution(cfg.core, trace, hierarchy))
        reset_hierarchy = [hierarchy.reset_stats for hierarchy in hierarchies]
        reset_dram = dram.reset_stats
        interleave = interleave_two_level

    warmup_ops = [int(len(trace) * cfg.warmup_frac) for trace in traces]
    stats_reset_time = None

    def _cross_warmup(idx):
        nonlocal stats_reset_time
        ex = executions[idx]
        ex.mark_stats_start()
        reset_hierarchy[idx]()
        if stats_reset_time is None:
            stats_reset_time = ex.time
            reset_dram(ex.time)

    with _gc_paused():
        interleave(executions, warmup_ops, _cross_warmup)

    if kernel:
        # Nothing can read a compiled run's scheme state once it returns,
        # so it skips the object path's end-of-run drain and writes
        # nothing back.
        dram_counters = domain.dram_counters()
        per_core = [
            _run_result(*kex.counters(), dram.config, dram_counters) for kex in executions
        ]
    else:
        per_core = [_result_from(ex, hier, dram) for ex, hier in zip(executions, hierarchies)]
        # End-of-run training drain, after stats capture: the drain's
        # bandwidth-bucket queries at the final cycle must not perturb the
        # reported residency.  Pages still resident in e.g. DSPatch's PB
        # learn under the run-final bucket, each core in index order.
        for ex, hier in zip(executions, hierarchies):
            if hier.l2_prefetcher is not None:
                flush_training_with_cycle(hier.l2_prefetcher, int(ex.time))
    end_time = max((ex.time for ex in executions), default=0.0)
    global_cycles = max(end_time - (stats_reset_time or 0.0), 0.0)
    return per_core, global_cycles


class System:
    """Single-core trace-driven simulation.

    ``sink`` receives trace events when the config enables
    ``trace_prefetch``/``trace_cache`` (stderr lines when omitted); it is
    deliberately *not* part of :class:`SystemConfig` — where the events
    go is an observation concern, not part of the simulated machine.
    """

    def __init__(self, config: SystemConfig = None, sink=None):
        self.config = config or SystemConfig()
        self.sink = sink

    def run(self, trace):
        """Simulate ``trace`` end to end; returns a :class:`RunResult`."""
        sink = _resolve_sink(self.config, self.sink)
        per_core, _ = _simulate(self.config, [trace], [sink])
        return per_core[0]


@dataclass
class MultiProgramResult:
    """Results of one multi-programmed mix."""

    per_core: list  # RunResult per core
    #: Global-time span of the measured region: the latest per-core
    #: end-of-run retirement time minus the shared stats-reset time (the
    #: moment the *first* core crossed its warmup boundary).  Unlike the
    #: per-core ``cycles`` fields — measured-region spans that each start
    #: at that core's own warmup boundary — this is one consistent wall
    #: span for the whole mix (what a shared-resource rate like aggregate
    #: DRAM bandwidth should be divided by).
    global_cycles: float

    def weighted_speedup(self, alone_ipcs):
        """Sum of per-core IPC over the same workload's alone-IPC."""
        if len(alone_ipcs) != len(self.per_core):
            raise ValueError("need one alone-IPC per core")
        return sum(
            core.ipc / alone if alone > 0 else 0.0
            for core, alone in zip(self.per_core, alone_ipcs)
        )


class MultiCoreSystem:
    """Four (or N) cores sharing an LLC and DRAM."""

    def __init__(self, config: SystemConfig = None, num_cores=4, sink=None):
        self.config = config or SystemConfig.multi_programmed()
        self.num_cores = num_cores
        self.sink = sink

    def run(self, traces):
        """Simulate one trace per core; returns :class:`MultiProgramResult`."""
        if len(traces) != self.num_cores:
            raise ValueError(f"need exactly {self.num_cores} traces")
        sink = _resolve_sink(self.config, self.sink)
        sinks = [None if sink is None else CoreScopedSink(sink, idx) for idx in range(len(traces))]
        per_core, global_cycles = _simulate(self.config, traces, sinks)
        return MultiProgramResult(per_core=per_core, global_cycles=global_cycles)
