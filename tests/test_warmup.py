"""Tests for the warmup-then-measure methodology (SystemConfig.warmup_frac)."""

import pytest

from repro.cpu.core import CoreExecution, CoreModel, interleave_two_level
from repro.cpu.system import System, SystemConfig
from repro.kernel import kernel_available
from repro.memory.dram import DramModel
from repro.memory.hierarchy import L1, MemoryHierarchy
from repro.workloads.catalog import build_trace


@pytest.fixture(scope="module")
def trace():
    return build_trace("fspec06.sphinx3", 2000)


class TestCoreStatsFloor:
    def test_mark_floor_subtracts(self, trace):
        hierarchy = MemoryHierarchy(dram=DramModel())
        ex = CoreExecution(CoreModel(), trace, hierarchy)
        for _ in range(500):
            ex.advance()
        ex.mark_stats_start()
        ex.run()
        stats = ex.finalize()
        assert stats.instructions < trace.instructions
        assert stats.cycles > 0
        assert sum(stats.level_hits.values()) == 1500

    @pytest.mark.parametrize("kernel", ["object", "compiled"])
    def test_memory_ops_count_from_the_floor(self, trace, kernel):
        """Like the hits, ``memory_ops`` counts the measured region only."""
        cfg = SystemConfig.single_thread()
        dram = DramModel(cfg.dram)
        if kernel == "compiled":
            if not kernel_available():
                pytest.skip("no C toolchain: the compiled kernel cannot be built")
            from repro.kernel.execution import KernelDomain, KernelExecution

            domain = KernelDomain(cfg.hierarchy.llc, dram)
            ex = KernelExecution(cfg, trace, domain)
            domain.interleave([ex], [500], lambda idx: ex.mark_stats_start())
            stats = ex.counters()[0]
        else:
            hierarchy = MemoryHierarchy(config=cfg.hierarchy, dram=dram)
            ex = CoreExecution(cfg.core, trace, hierarchy)
            interleave_two_level([ex], [500], lambda idx: ex.mark_stats_start())
            stats = ex.finalize()
        assert stats.memory_ops == sum(stats.level_hits.values()) == 1500

    def test_no_floor_counts_everything(self, trace):
        hierarchy = MemoryHierarchy(dram=DramModel())
        ex = CoreExecution(CoreModel(), trace, hierarchy)
        ex.run()
        stats = ex.finalize()
        assert stats.instructions == trace.instructions
        assert sum(stats.level_hits.values()) == len(trace)


class TestHierarchyReset:
    def test_reset_stats_keeps_cache_contents(self, trace):
        hierarchy = MemoryHierarchy(dram=DramModel())
        ex = CoreExecution(CoreModel(), trace, hierarchy)
        for _ in range(800):
            ex.advance()
        caches = (hierarchy.l1, hierarchy.l2, hierarchy.llc)
        resident = [cache.occupancy() for cache in caches]
        assert all(resident)
        hierarchy.reset_stats()
        assert hierarchy.l2_demand_misses == 0
        assert [cache.occupancy() for cache in caches] == resident
        # The last access's line survived the reset: re-accessing it hits.
        _gap, pc, addr, _flags = trace[799]
        _latency, level = hierarchy.access(ex.time, pc, addr)
        assert level == L1 and hierarchy.l2_demand_misses == 0

    def test_dram_reset_zeroes_counters(self):
        dram = DramModel()
        dram.access(0, 0x100)
        dram.access(100, 0x200)
        assert dram.reads == 2
        dram.reset_stats(cycle=200)
        counters = dram.counters()
        assert (counters.reads, counters.writes) == (0, 0)
        assert counters.stats_start == 200
        assert counters.bucket_cycles == (0, 0, 0, 0)


class TestSystemWarmup:
    def test_warmup_shrinks_measured_instructions(self, trace):
        full = System(SystemConfig.single_thread("none", warmup_frac=0.0)).run(trace)
        warmed = System(SystemConfig.single_thread("none", warmup_frac=0.5)).run(trace)
        assert warmed.instructions < full.instructions
        assert warmed.instructions == pytest.approx(full.instructions * 0.5, rel=0.1)

    def test_warmup_benefits_slow_learners(self):
        """DSPatch learns only on PB evictions; measuring after warmup
        must credit it with coverage a cold-start measurement misses."""
        stream = build_trace("fspec06.libquantum", 6000)
        cold = System(SystemConfig.single_thread("dspatch", warmup_frac=0.0)).run(stream)
        warm = System(SystemConfig.single_thread("dspatch", warmup_frac=0.5)).run(stream)
        assert warm.coverage > cold.coverage

    def test_multicore_warmup(self):
        from repro.cpu.system import MultiCoreSystem

        traces = [build_trace("ispec06.hmmer", 800) for _ in range(4)]
        result = MultiCoreSystem(SystemConfig.multi_programmed("none")).run(traces)
        for core in result.per_core:
            assert 0 < core.instructions < traces[0].instructions
