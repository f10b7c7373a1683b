"""End-to-end check of the LLC's prefetch-aware dead-block replacement.

The policies themselves are tested at the cache level (tests/test_cache.py).
"""


class TestEndToEndPollution:
    def test_dead_block_policy_reduces_pollution_misses(self):
        """Under an inaccurate prefetcher, the LLC's dead-block policy
        should not hurt (and typically helps) demand hit rate vs LRU."""
        from repro.memory.cache import Cache, CacheConfig
        from repro.memory.dram import DramModel
        from repro.memory.hierarchy import HierarchyConfig, MemoryHierarchy
        from repro.cpu.core import CoreExecution, CoreModel
        from repro.prefetchers.streamer import StreamPrefetcher
        from repro.workloads.catalog import build_trace

        trace = build_trace("ispec06.sjeng", 4000)

        def run(policy):
            base = HierarchyConfig()
            llc = CacheConfig(
                name="LLC",
                size_bytes=256 * 1024,
                ways=16,
                hit_latency=30,
                mshrs=32,
                replacement=policy,
            )
            config = HierarchyConfig(l1=base.l1, l2=base.l2, llc=llc)
            hierarchy = MemoryHierarchy(
                config=config, dram=DramModel(), l2_prefetcher=StreamPrefetcher()
            )
            return CoreExecution(CoreModel(), trace, hierarchy).run().llc_hits

        assert run("pf-dead-block") >= run("lru") * 0.9
