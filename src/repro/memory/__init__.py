"""Memory-system substrate: caches, MSHRs, DRAM, and the full hierarchy.

This package implements the simulated machine of Table 2: three levels of
set-associative caches with MSHRs and prefetch-aware replacement (both
policies live in :class:`~repro.memory.cache.Cache`), plus a banked DDR4
DRAM model whose bandwidth monitor provides the 2-bit utilization signal
DSPatch consumes (Section 3.2).
"""

from repro.memory.cache import Cache, CacheConfig, CacheLine, EvictionInfo
from repro.memory.dram import (
    BandwidthMonitor,
    DramConfig,
    DramModel,
    FixedBandwidth,
)
from repro.memory.hierarchy import (
    AccessResult,
    HierarchyConfig,
    MemoryHierarchy,
    PrefetchStats,
)
from repro.memory.mshr import MshrFile

__all__ = [
    "AccessResult",
    "BandwidthMonitor",
    "Cache",
    "CacheConfig",
    "CacheLine",
    "DramConfig",
    "DramModel",
    "EvictionInfo",
    "FixedBandwidth",
    "HierarchyConfig",
    "MemoryHierarchy",
    "MshrFile",
    "PrefetchStats",
]
