"""Tests for the single-core and multi-core system drivers."""

import pytest

from repro.cpu.system import MultiCoreSystem, System, SystemConfig
from repro.kernel import kernel_available
from repro.memory.dram import DramConfig
from repro.workloads.catalog import build_trace
from repro.workloads.mixes import build_mix_traces

#: Both kernels; the compiled one needs a C toolchain.
KERNELS = [
    "object",
    pytest.param(
        "compiled",
        marks=pytest.mark.skipif(not kernel_available(), reason="no C toolchain"),
    ),
]


def _record_flush(monkeypatch):
    """Record a run's end-of-run training drain: ``(prefetcher, cycle)``
    per ``flush_training`` call."""
    import repro.cpu.system as system_mod

    calls = []
    real_flush = system_mod.flush_training_with_cycle

    def recording_flush(prefetcher, cycle):
        calls.append((prefetcher, cycle))
        real_flush(prefetcher, cycle)

    monkeypatch.setattr(system_mod, "flush_training_with_cycle", recording_flush)
    return calls


class TestSystemConfig:
    def test_single_thread_defaults(self):
        cfg = SystemConfig.single_thread("spp")
        assert cfg.hierarchy.llc.size_bytes == 2 * 1024 * 1024
        assert cfg.dram.channels == 1
        assert cfg.l2_prefetcher == "spp"

    def test_multi_programmed_defaults(self):
        cfg = SystemConfig.multi_programmed()
        assert cfg.hierarchy.llc.size_bytes == 8 * 1024 * 1024
        assert cfg.dram.channels == 2

    def test_llc_override(self):
        cfg = SystemConfig.single_thread("none", llc_bytes=4 * 1024 * 1024)
        assert cfg.hierarchy.llc.size_bytes == 4 * 1024 * 1024


class TestSingleCoreRun:
    @pytest.fixture(scope="class")
    def trace(self):
        return build_trace("cloud.bigbench", 1500)

    def test_baseline_result_fields(self, trace):
        res = System(SystemConfig.single_thread("none")).run(trace)
        assert res.ipc > 0
        # The measured region excludes the warmup fraction of the trace.
        assert 0 < res.instructions < trace.instructions
        assert res.cycles > 0
        assert res.pf_issued == 0
        assert res.l2_demand_misses > 0
        assert res.mpki > 0

    def test_warmup_zero_measures_whole_trace(self, trace):
        cfg = SystemConfig.single_thread("none", warmup_frac=0.0)
        res = System(cfg).run(trace)
        assert res.instructions == trace.instructions

    def test_prefetcher_reduces_misses(self, trace):
        base = System(SystemConfig.single_thread("none")).run(trace)
        spp = System(SystemConfig.single_thread("spp")).run(trace)
        assert spp.l2_demand_misses < base.l2_demand_misses
        assert spp.pf_useful > 0

    def test_coverage_accuracy_bounds(self, trace):
        res = System(SystemConfig.single_thread("spp")).run(trace)
        assert 0.0 <= res.coverage <= 1.0
        assert 0.0 <= res.accuracy <= 1.0

    def test_bw_residency_is_distribution(self, trace):
        res = System(SystemConfig.single_thread("none")).run(trace)
        assert sum(res.bw_utilization_residency) == pytest.approx(1.0)

    def test_achieved_bandwidth_below_peak(self, trace):
        res = System(SystemConfig.single_thread("spp")).run(trace)
        assert 0 < res.achieved_gbps <= DramConfig().peak_gbps + 1e-9

    def test_same_trace_same_result(self, trace):
        a = System(SystemConfig.single_thread("dspatch")).run(trace)
        b = System(SystemConfig.single_thread("dspatch")).run(trace)
        assert a.ipc == b.ipc
        assert a.pf_issued == b.pf_issued

    def test_pollution_recording_off_by_default(self, trace):
        res = System(SystemConfig.single_thread("streamer")).run(trace)
        assert res.pollution_events == []

    def test_pollution_recording_on(self):
        trace = build_trace("hpc.linpack", 1200)
        cfg = SystemConfig.single_thread(
            "streamer", llc_bytes=256 * 1024, record_pollution_victims=True
        )
        res = System(cfg).run(trace)
        assert res.demand_log
        assert res.prefetch_fill_log

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_run_drains_training_at_final_cycle(self, kernel, monkeypatch):
        """End of run flushes the L2 prefetcher's residual training under
        the run-final cycle (after stats capture), draining e.g. DSPatch's
        page buffer.  A compiled run reads its results first too and
        nothing reads its scheme afterwards, so it has no drain
        (``tests/test_kernel_parity.py`` drains its written-back state)."""
        calls = _record_flush(monkeypatch)
        trace = build_trace("cloud.bigbench", 1500)
        res = System(SystemConfig.single_thread("dspatch", kernel=kernel)).run(trace)
        if kernel == "compiled":
            assert not calls
            return
        assert len(calls) == 1
        prefetcher, cycle = calls[0]
        assert cycle >= int(res.cycles)  # final cycle includes warmup
        assert not prefetcher.page_buffer._pages  # PB drained


class TestMultiCore:
    def test_runs_four_cores(self):
        traces = build_mix_traces(["ispec06.mcf"] * 4, 400)
        result = MultiCoreSystem(SystemConfig.multi_programmed("none")).run(traces)
        assert len(result.per_core) == 4
        assert all(core.ipc > 0 for core in result.per_core)

    def test_core_count_enforced(self):
        traces = build_mix_traces(["ispec06.mcf"] * 4, 100)
        with pytest.raises(ValueError):
            MultiCoreSystem(SystemConfig.multi_programmed("none")).run(traces[:2])

    def test_weighted_speedup(self):
        traces = build_mix_traces(["ispec06.mcf"] * 4, 400)
        result = MultiCoreSystem(SystemConfig.multi_programmed("none")).run(traces)
        ws = result.weighted_speedup([core.ipc for core in result.per_core])
        assert ws == pytest.approx(4.0)

    def test_weighted_speedup_length_check(self):
        traces = build_mix_traces(["ispec06.mcf"] * 4, 200)
        result = MultiCoreSystem(SystemConfig.multi_programmed("none")).run(traces)
        with pytest.raises(ValueError):
            result.weighted_speedup([1.0, 2.0])

    def test_shared_llc_contention(self):
        """Four co-runners see lower per-core IPC than running alone."""
        traces = build_mix_traces(["cloud.memcached"] * 4, 500)
        mp = MultiCoreSystem(SystemConfig.multi_programmed("none")).run(traces)
        alone = System(
            SystemConfig.single_thread("none", dram=DramConfig(2133, 2), llc_bytes=8 << 20)
        ).run(traces[0])
        mean_shared_ipc = sum(c.ipc for c in mp.per_core) / 4
        assert mean_shared_ipc <= alone.ipc * 1.05

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_mp_run_drains_training_per_core(self, kernel, monkeypatch):
        calls = _record_flush(monkeypatch)
        traces = build_mix_traces(["ispec06.mcf"] * 4, 400)
        MultiCoreSystem(SystemConfig.multi_programmed("dspatch", kernel=kernel)).run(traces)
        if kernel == "compiled":
            assert not calls  # no drain (see the single-core test)
            return
        assert len(calls) == 4
        assert len({id(pf) for pf, _ in calls}) == 4  # one flush per core
        assert all(cycle > 0 for _, cycle in calls)

    def test_prefetching_helps_mixes(self):
        traces = build_mix_traces(["sysmark.excel"] * 4, 500)
        base = MultiCoreSystem(SystemConfig.multi_programmed("none")).run(traces)
        spp = MultiCoreSystem(SystemConfig.multi_programmed("spp+dspatch")).run(traces)
        alone = [core.ipc for core in base.per_core]
        assert spp.weighted_speedup(alone) > base.weighted_speedup(alone) * 0.95
