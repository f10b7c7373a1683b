"""Tests for the interleave scheduler, the shared run driver and its bugfixes.

Pins four things:

1. **Scheduler parity** — ``interleave_two_level`` (the object-model
   scheduler), its C twin ``KernelDomain.interleave`` (the compiled
   runs' scheduler) and ``interleave_reference`` (the per-op heap loop
   defined here as the scheduling reference) produce bit-identical
   results, warmup-boundary logs and final core times on real 4-core
   mixes, including zero warmup, uneven and 3-op trace lengths,
   unreachable stop targets and Python training crossings that
   interrupt the C schedule.
2. **Warmup boundary semantics** — the boundary fires exactly at the
   warmup op count (never stepped over by a batch) and fires before the
   first op when the warmup is zero ops.
3. **Single-thread runs are one-core schedules** — ``System.run`` equals
   the hand-driven warmup-then-measure protocol field for field, on the
   object model and on the compiled kernel.
4. **The satellite bugfixes** — ``DSPatch.flush_training`` learns under
   the run-final bandwidth bucket, and ``MultiProgramResult`` reports a
   consistent global-time span.
"""

import heapq

import pytest

from repro.core.dspatch import DSPatch
from repro.cpu.core import (
    CoreExecution,
    CoreModel,
    _fire_met_checkpoints,
    interleave_two_level,
)
from repro.cpu.system import (
    MultiCoreSystem,
    System,
    SystemConfig,
    _result_from,
    _run_result,
)
from repro.kernel import kernel_available
from repro.kernel.execution import KernelBandwidth, KernelDomain, KernelExecution
from repro.kernel.layout import CAND_CAP0
from repro.memory.cache import Cache
from repro.memory.dram import DramModel, FixedBandwidth
from repro.memory.hierarchy import MemoryHierarchy
from repro.prefetchers.base import PrefetchCandidate
from repro.prefetchers.registry import build_prefetcher
from repro.prefetchers.stride import PcStridePrefetcher
from repro.workloads.catalog import build_trace
from repro.workloads.mixes import build_mix_traces


def interleave_reference(executions, stop_ops=None, on_stop=None):
    """Per-op heap interleave: the scheduling reference.

    Advances whichever core has the smallest ``(time, index)`` by exactly
    one op per heap pop, with the same warmup-checkpoint contract as
    :func:`interleave_two_level`.
    """
    pending = _fire_met_checkpoints(executions, stop_ops, on_stop)
    heap = [(ex.time, idx) for idx, ex in enumerate(executions) if not ex.done]
    heapq.heapify(heap)
    while heap:
        _, idx = heapq.heappop(heap)
        ex = executions[idx]
        if ex.advance():
            heapq.heappush(heap, (ex.time, idx))
        target = pending[idx]
        if target is not None and ex.ops >= target:
            pending[idx] = None
            if on_stop is not None:
                on_stop(idx)


#: Object-model schedulers by name; ``"compiled"`` names the C twin,
#: which schedules kernel cores instead (see ``_mp_run_with_driver``).
DRIVERS = {
    "reference": interleave_reference,
    "two-level": interleave_two_level,
}

needs_compiled = pytest.mark.skipif(
    not kernel_available(), reason="no C toolchain: the compiled kernel cannot be built"
)

#: The schedulers pinned to the reference.
SCHEDULERS = ["two-level", pytest.param("compiled", marks=needs_compiled)]

#: RunResult fields compared exactly across drivers.
_RESULT_FIELDS = (
    "ipc",
    "instructions",
    "cycles",
    "coverage",
    "accuracy",
    "pf_issued",
    "pf_useful",
    "pf_late",
    "pf_useless",
    "l2_demand_misses",
    "dram_reads",
    "achieved_gbps",
    "level_hits",
    "bw_utilization_residency",
)


def _log_scheme_calls(idx, pf, events):
    """Append every train/note call ``pf`` receives to ``events``.

    Instance attributes shadow the methods before the hierarchy or the
    kernel binds them, so both paths call through the log.
    """
    for name in ("train", "note_useful_prefetch", "note_useless_prefetch"):
        method = getattr(pf, name)

        def logged(*args, _name=name, _method=method):
            events.append((idx, _name, args))
            return _method(*args)

        setattr(pf, name, logged)


def _mp_run_with_driver(driver, cfg, traces, stop_ops=None, events=None, scheme_hook=None):
    """MultiCoreSystem.run rebuilt around an explicit interleave driver.

    ``driver`` names an object-model scheduler in :data:`DRIVERS`, or is
    ``"compiled"``: the cores are then laid out on the compiled kernel
    straight from ``cfg``, as the compiled driver lays them out, and
    ``KernelDomain.interleave`` schedules them.  ``stop_ops`` overrides
    the warmup checkpoints; ``scheme_hook(idx, pf)``, when given, may
    patch each core's L2 scheme, and ``events`` collects every scheme
    train/note call of every core in call order.  Returns the
    per-core results, the boundary log ``(idx, ops, time)`` and the
    final core times.
    """
    compiled = driver == "compiled"
    dram = DramModel(cfg.dram)
    bandwidth = dram
    if compiled:
        domain = KernelDomain(cfg.hierarchy.llc, dram)
        bandwidth = KernelBandwidth(dram)
        bandwidth.attach(domain)
    else:
        shared_llc = Cache(cfg.hierarchy.llc)
    executions, hierarchies = [], []
    for idx, trace in enumerate(traces):
        l2_pf = build_prefetcher(cfg.l2_prefetcher, bandwidth)
        if scheme_hook is not None:
            scheme_hook(idx, l2_pf)
        if events is not None:
            _log_scheme_calls(idx, l2_pf, events)
        if compiled:
            executions.append(KernelExecution(cfg, trace, domain, l2_prefetcher=l2_pf))
            continue
        hierarchy = MemoryHierarchy(
            config=cfg.hierarchy,
            dram=dram,
            llc=shared_llc,
            l1_prefetcher=PcStridePrefetcher() if cfg.l1_stride else None,
            l2_prefetcher=l2_pf,
        )
        hierarchies.append(hierarchy)
        executions.append(CoreExecution(cfg.core, trace, hierarchy))
    if stop_ops is None:
        stop_ops = [int(len(trace) * cfg.warmup_frac) for trace in traces]
    boundary_log = []

    def _cross(idx):
        ex = executions[idx]
        boundary_log.append((idx, ex.ops, ex.time))
        ex.mark_stats_start()
        if compiled:
            ex.reset_hierarchy_stats()
        else:
            hierarchies[idx].reset_stats()
        if len(boundary_log) == 1:
            (domain.reset_dram_stats if compiled else dram.reset_stats)(ex.time)

    if compiled:
        # Results from the live flat counters, as the compiled driver
        # reads them: nothing is written back.
        domain.interleave(executions, stop_ops, _cross)
        assert all(kex.ops == len(trace) for kex, trace in zip(executions, traces))
        dram_counters = domain.dram_counters()
        results = [_run_result(*kex.counters(), cfg.dram, dram_counters) for kex in executions]
    else:
        DRIVERS[driver](executions, stop_ops, _cross)
        assert all(ex.done for ex in executions)
        results = [
            _result_from(ex, hier, dram) for ex, hier in zip(executions, hierarchies)
        ]
    return results, boundary_log, [ex.time for ex in executions]


def _assert_identical(results_a, results_b, context):
    for core, (ra, rb) in enumerate(zip(results_a, results_b)):
        for field in _RESULT_FIELDS:
            assert getattr(ra, field) == getattr(rb, field), (
                f"{context}: core {core} field {field} diverged"
            )


def _assert_matches_reference(
    driver, cfg, traces, context, stop_ops=None, events=None, scheme_hook=None
):
    """``driver`` equals the per-op reference on results, boundaries and
    times; with an ``events`` list, also on the global order of every
    core's scheme train/note calls (the reference's calls land in it)."""
    got_events = None if events is None else []
    ref, ref_bounds, ref_times = _mp_run_with_driver(
        "reference", cfg, traces, stop_ops, events, scheme_hook
    )
    got, bounds, times = _mp_run_with_driver(
        driver, cfg, traces, stop_ops, got_events, scheme_hook
    )
    _assert_identical(ref, got, f"{driver}: {context}")
    assert bounds == ref_bounds, f"{driver}: {context}: boundary crossings diverged"
    assert times == ref_times, f"{driver}: {context}: final core times diverged"
    assert got_events == events, f"{driver}: {context}: scheme calls diverged"
    return bounds


_MIX = ["ispec06.mcf", "cloud.memcached", "hpc.npb-bt", "sysmark.excel"]


class TestDriverParity:
    """Both schedulers are bit-for-bit interchangeable with the reference."""

    @pytest.mark.parametrize("driver", SCHEDULERS)
    @pytest.mark.parametrize("scheme", ["none", "dspatch", "spp+dspatch", "ebop"])
    @pytest.mark.parametrize("warmup_frac", [0.25, 0.0])
    def test_parity_on_mix_grid(self, scheme, warmup_frac, driver):
        traces = build_mix_traces(_MIX, 800)
        cfg = SystemConfig.multi_programmed(scheme, warmup_frac=warmup_frac)
        _assert_matches_reference(driver, cfg, traces, f"scheme={scheme} warmup={warmup_frac}")

    @pytest.mark.parametrize("driver", SCHEDULERS)
    def test_parity_uneven_trace_lengths(self, driver):
        traces = [build_trace(name, length) for name, length in zip(_MIX, (1200, 400, 900, 50))]
        cfg = SystemConfig.multi_programmed("dspatch")
        _assert_matches_reference(driver, cfg, traces, "uneven lengths")

    @pytest.mark.parametrize("driver", SCHEDULERS)
    @pytest.mark.parametrize("scheme", ["alwayscovp", "spp+bop"])
    def test_parity_with_training_crossings(self, scheme, driver):
        """Schemes without a C twin train in Python: every training
        access returns from the C schedule mid-batch, and queued
        usefulness notes return at the batch end.  Every core's train
        and note calls must reach the schemes in the reference's global
        order (AlwaysCovP also reads the shared bandwidth monitor from
        Python while the other cores' state is live in C)."""
        from repro.kernel import layout
        from repro.kernel.state import _scheme_kind

        dram = DramModel(SystemConfig.multi_programmed().dram)
        assert _scheme_kind(build_prefetcher(scheme, dram), dram) == layout.SCHEME_PY
        traces = build_mix_traces(_MIX, 800)
        cfg = SystemConfig.multi_programmed(scheme)
        events = []
        _assert_matches_reference(driver, cfg, traces, f"crossings/{scheme}", events=events)
        assert any(name.startswith("note") for _, name, _ in events)

    @needs_compiled
    def test_candidate_buffer_growth_mid_schedule(self):
        """A train returning more candidates than the kernel's buffers
        hold makes it grow them mid-run.  The C scheduler keeps each
        core's pointer table for the whole schedule, so the growth must
        land in that same table."""

        def burst(idx, pf):
            train = pf.train
            calls = []

            def bursting(cycle, pc, addr, hit):
                calls.append(cycle)
                cands = list(train(cycle, pc, addr, hit))
                if len(calls) % 97 == 0:
                    far = (addr >> 6) + (1 << 24) * (idx + 1)
                    cands += [PrefetchCandidate(far + i) for i in range(CAND_CAP0 + 50)]
                return cands

            pf.train = bursting

        from repro.kernel import layout
        from repro.kernel.state import _scheme_kind

        dram = DramModel(SystemConfig.multi_programmed().dram)
        assert _scheme_kind(build_prefetcher("ampm", dram), dram) == layout.SCHEME_PY
        traces = build_mix_traces(_MIX, 600)
        cfg = SystemConfig.multi_programmed("ampm")
        _assert_matches_reference("compiled", cfg, traces, "candidate growth", scheme_hook=burst)

    @pytest.mark.parametrize("driver", SCHEDULERS)
    def test_instance_hooked_twin_scheme_keeps_its_calls(self, driver):
        """Regression: a scheme whose train/note hooks are replaced on the
        instance ran its C twin anyway, so the hooks were never called
        (0 calls on the compiled driver, 2,185 on the others, for this
        mix).  The gate now declines the twin and the calls cross."""
        traces = build_mix_traces(_MIX, 400)
        cfg = SystemConfig.multi_programmed("spp")
        events = []
        _assert_matches_reference(driver, cfg, traces, "hooked spp", events=events)
        assert any(name == "train" for _, name, _ in events)
        assert any(name.startswith("note") for _, name, _ in events)

    def test_system_run_uses_batched_driver_semantics(self):
        """MultiCoreSystem.run matches the explicit two-level rebuild."""
        traces = build_mix_traces(["ispec06.mcf"] * 4, 500)
        cfg = SystemConfig.multi_programmed("spp")
        direct, _, _ = _mp_run_with_driver("two-level", cfg, traces)
        via_system = MultiCoreSystem(cfg).run(traces)
        _assert_identical(direct, via_system.per_core, "MultiCoreSystem.run")


class TestWarmupBoundary:
    @pytest.mark.parametrize("driver", SCHEDULERS)
    def test_boundary_fires_exactly_at_warmup_ops(self, driver):
        """Batches cap at the boundary; it is never stepped over."""
        traces = build_mix_traces(["ispec06.mcf"] * 4, 600)
        cfg = SystemConfig.multi_programmed("none", warmup_frac=0.25)
        _, bounds, _ = _mp_run_with_driver(driver, cfg, traces)
        assert len(bounds) == 4
        for idx, ops_at_fire, _time in bounds:
            assert ops_at_fire == int(len(traces[idx]) * 0.25)

    @pytest.mark.parametrize("driver", SCHEDULERS)
    def test_zero_warmup_fires_before_first_op(self, driver):
        traces = build_mix_traces(["ispec06.mcf"] * 4, 300)
        cfg = SystemConfig.multi_programmed("none", warmup_frac=0.0)
        _, bounds, _ = _mp_run_with_driver(driver, cfg, traces)
        # One crossing per core, all at zero executed ops and time zero.
        assert sorted(idx for idx, _, _ in bounds) == [0, 1, 2, 3]
        assert all(ops == 0 and time == 0.0 for _, ops, time in bounds)

    def test_zero_warmup_mp_matches_st_semantics(self):
        """Regression: warmup_frac=0 measures the whole trace on the MP
        path, exactly as System.run does on the ST path."""
        traces = build_mix_traces(["ispec06.mcf"] * 4, 400)
        cfg = SystemConfig.multi_programmed("none", warmup_frac=0.0)
        result = MultiCoreSystem(cfg).run(traces)
        for core, trace in zip(result.per_core, traces):
            assert core.instructions == trace.instructions
        st = System(
            SystemConfig.single_thread("none", warmup_frac=0.0)
        ).run(traces[0])
        assert st.instructions == traces[0].instructions

    @pytest.mark.parametrize("driver", SCHEDULERS)
    def test_target_beyond_trace_never_fires(self, driver):
        """A stop target past the trace end is unreachable: the run
        completes (the driver asserts every core done) and no boundary
        fires, in either scheduler and in the reference."""
        traces = build_mix_traces(_MIX, 200)
        cfg = SystemConfig.multi_programmed("dspatch")
        stops = [len(t) + 10 for t in traces]
        bounds = _assert_matches_reference(driver, cfg, traces, "stop past end", stops)
        assert bounds == []

    @pytest.mark.parametrize("driver", SCHEDULERS)
    def test_very_short_trace_warmup_rounds_to_zero(self, driver):
        """len(trace) * warmup_frac < 1 rounds to a zero-op warmup and
        still fires the boundary (the pre-fix code skipped it)."""
        traces = build_mix_traces(["ispec06.mcf"] * 4, 3)
        cfg = SystemConfig.multi_programmed("spp+dspatch", warmup_frac=0.25)
        bounds = _assert_matches_reference(driver, cfg, traces, "3-op traces")
        assert len(bounds) == 4
        assert all(ops == 0 for _, ops, _ in bounds)


def _st_hand_driven(cfg, trace):
    """The single-thread warmup-then-measure protocol, driven by hand."""
    dram = DramModel(cfg.dram)
    hierarchy = MemoryHierarchy(
        config=cfg.hierarchy,
        dram=dram,
        l1_prefetcher=PcStridePrefetcher() if cfg.l1_stride else None,
        l2_prefetcher=build_prefetcher(cfg.l2_prefetcher, dram),
    )
    execution = CoreExecution(cfg.core, trace, hierarchy)
    execution.run_ops(int(len(trace) * cfg.warmup_frac))
    execution.mark_stats_start()
    hierarchy.reset_stats()
    dram.reset_stats(execution.time)
    execution.run_ops()
    return _result_from(execution, hierarchy, dram)


class TestSingleThreadIsOneCoreSchedule:
    """System.run goes through the shared driver as a one-core schedule;
    it must equal the plain single-thread protocol field for field."""

    @pytest.mark.parametrize("kernel", ["object", pytest.param("compiled", marks=needs_compiled)])
    @pytest.mark.parametrize("warmup_frac", [0.0, 0.25, 1.0])
    @pytest.mark.parametrize("scheme", ["dspatch", "bop", "ampm"])
    def test_system_run_matches_hand_driven_protocol(self, scheme, warmup_frac, kernel):
        from repro.kernel import layout
        from repro.kernel.state import _scheme_kind

        # Two C twins and one scheme that crosses into Python per train.
        kinds = {"dspatch": layout.SCHEME_DSPATCH, "bop": layout.SCHEME_BOP, "ampm": layout.SCHEME_PY}
        dram = DramModel()
        assert _scheme_kind(build_prefetcher(scheme, dram), dram) == kinds[scheme]
        trace = build_trace("cloud.memcached", 1500)
        cfg = SystemConfig.single_thread(scheme, warmup_frac=warmup_frac, kernel=kernel)
        expected = _st_hand_driven(cfg, trace)
        got = System(cfg).run(trace)
        assert got.to_dict() == expected.to_dict()


class TestRunOpsUntil:
    def _fresh(self, length=800):
        trace = build_trace("ispec06.mcf", length)
        hierarchy = MemoryHierarchy(dram=DramModel())
        return CoreExecution(CoreModel(), trace, hierarchy)

    def test_infinite_horizon_equals_run_ops(self):
        a = self._fresh()
        b = self._fresh()
        a.run_ops()
        executed = b.run_ops_until(float("inf"))
        assert executed == b.ops == a.ops
        assert a.time == b.time

    def test_horizon_stops_once_time_passes(self):
        probe = self._fresh()
        probe.run_ops(50)
        horizon = probe.time
        ex = self._fresh()
        ex.run_ops_until(horizon)
        assert ex.time > horizon  # the crossing op itself executes
        # Identical prefix: replaying per-op advance up to the same count
        # gives the same state.
        replay = self._fresh()
        for _ in range(ex.ops):
            replay.advance()
        assert replay.time == ex.time

    def test_strict_horizon_excludes_equal_time(self):
        ex = self._fresh()
        # Horizon exactly at the core's current time: strict mode must not
        # execute anything, non-strict must run at least one op.
        assert ex.run_ops_until(ex.time, strict=True) == 0
        assert ex.run_ops_until(ex.time) >= 1

    def test_max_ops_caps_batch(self):
        ex = self._fresh()
        assert ex.run_ops_until(float("inf"), max_ops=7) == 7
        assert ex.ops == 7

    def test_exhausted_returns_zero(self):
        ex = self._fresh(length=20)
        ex.run_ops()
        assert ex.run_ops_until(float("inf")) == 0


class TestFlushTrainingCycle:
    class _RecordingBandwidth(FixedBandwidth):
        """FixedBandwidth that records every queried cycle."""

        def __init__(self, bucket_value=0):
            super().__init__(bucket_value)
            self.queried = []

        def bucket(self, cycle):
            self.queried.append(cycle)
            return super().bucket(cycle)

    def test_flush_reads_bucket_at_final_cycle(self):
        """Regression: the end-of-run PB drain learns under the bandwidth
        bucket of the run's final cycle, not cycle 0."""
        bw = self._RecordingBandwidth(0)
        pf = DSPatch(bw)
        pf.train(10, 0x40100, (0x1000 << 12) | (4 << 6), hit=False)
        bw.queried.clear()
        pf.flush_training(98765)
        assert bw.queried, "flush with resident pages must consult the bucket"
        assert all(cycle == 98765 for cycle in bw.queried)

    def test_flush_default_cycle_is_zero(self):
        bw = self._RecordingBandwidth(0)
        pf = DSPatch(bw)
        pf.train(10, 0x40100, (0x1000 << 12) | (4 << 6), hit=False)
        bw.queried.clear()
        pf.flush_training()  # compat: defaulted signature still works
        assert all(cycle == 0 for cycle in bw.queried)


class TestGlobalCycles:
    def test_global_span_consistent(self):
        """Regression: the mix-level span is one global-time interval
        (max end time minus the shared stats-reset time), not a max over
        per-core measured regions with different start points."""
        names = ["ispec06.mcf", "cloud.memcached", "hpc.npb-bt", "sysmark.excel"]
        traces = [
            build_trace(name, length)
            for name, length in zip(names, (1000, 300, 700, 500))
        ]
        cfg = SystemConfig.multi_programmed("none")
        _, bounds, end_times = _mp_run_with_driver("two-level", cfg, traces)
        result = MultiCoreSystem(cfg).run(traces)
        first_reset_time = bounds[0][2]
        assert result.global_cycles == max(end_times) - first_reset_time
        # Every per-core measured span starts at or after the shared reset,
        # so the global span bounds them all.
        for core in result.per_core:
            assert core.cycles <= result.global_cycles + 1e-9
