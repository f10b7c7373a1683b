"""Tests for the single-core and multi-core system drivers."""

import pytest

from repro.constants import PAGE_SHIFT
from repro.core.dspatch import DSPatch
from repro.cpu.system import MultiCoreSystem, System, SystemConfig
from repro.memory.dram import DramConfig
from repro.workloads.catalog import build_trace
from repro.workloads.mixes import build_mix_traces


def _record_dspatch_training(monkeypatch):
    """Each DSPatch a run trains, mapped to the pages it trained on, in
    order (hooked on the class, which the object kernel's hierarchy
    binds ``train`` from when it is built)."""
    pages = {}
    real_train = DSPatch.train

    def recording_train(self, cycle, pc, addr, hit):
        pages.setdefault(self, []).append(addr >> PAGE_SHIFT)
        return real_train(self, cycle, pc, addr, hit)

    monkeypatch.setattr(DSPatch, "train", recording_train)
    return pages


def _assert_page_buffers_as_left(pages, cores):
    """Each core's DSPatch still holds, in LRU order, the last distinct
    pages it trained on: nothing learned from its page buffer after the
    run's last access."""
    assert len(pages) == cores
    for pf, trained in pages.items():
        recent = []
        for page in reversed(trained):
            if page not in recent:
                recent.append(page)
        want = recent[: pf.config.pb_entries][::-1]
        assert want and list(pf.page_buffer._pages) == want


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

    @pytest.mark.parametrize("scheme", ("dspatch", "spp+dspatch"))
    def test_run_leaves_page_buffer_as_trained(self, scheme, monkeypatch):
        """A run ends at its last access, as a compiled run does: DSPatch
        keeps the page-buffer pages its last accesses left, unlearned
        (``tests/test_kernel_parity.py`` pins the compiled end state)."""
        pages = _record_dspatch_training(monkeypatch)
        trace = build_trace("cloud.bigbench", 1500)
        System(SystemConfig.single_thread(scheme, kernel="object")).run(trace)
        _assert_page_buffers_as_left(pages, cores=1)


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

    @pytest.mark.parametrize("scheme", ("dspatch", "spp+dspatch"))
    def test_mp_run_leaves_each_page_buffer_as_trained(self, scheme, monkeypatch):
        pages = _record_dspatch_training(monkeypatch)
        traces = build_mix_traces(["ispec06.mcf"] * 4, 400)
        cfg = SystemConfig.multi_programmed(scheme, kernel="object")
        MultiCoreSystem(cfg).run(traces)
        _assert_page_buffers_as_left(pages, cores=4)

    def test_prefetching_helps_mixes(self):
        traces = build_mix_traces(["sysmark.excel"] * 4, 500)
        base = MultiCoreSystem(SystemConfig.multi_programmed("none")).run(traces)
        spp = MultiCoreSystem(SystemConfig.multi_programmed("spp+dspatch")).run(traces)
        alone = [core.ipc for core in base.per_core]
        assert spp.weighted_speedup(alone) > base.weighted_speedup(alone) * 0.95
