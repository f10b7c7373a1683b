"""repro — a full reproduction of *DSPatch: Dual Spatial Pattern Prefetcher*
(Bera, Nori, Mutlu, Subramoney — MICRO 2019).

The package bundles:

- :mod:`repro.core` — DSPatch itself (Page Buffer, Signature Prediction
  Table, anchored bit-patterns, dual-pattern modulation and the
  bandwidth-driven selection of Figure 10), its ablations config switches;
- :mod:`repro.prefetchers` — every baseline the paper evaluates (PC-stride,
  SPP/eSPP, BOP/eBOP, SMS, AMPM, a streaming prefetcher) and adjunct
  composition;
- :mod:`repro.memory` — the simulated memory system of Table 2 (three
  cache levels, MSHRs, prefetch-aware LLC replacement, banked DDR4 DRAM
  with the Section 3.2 bandwidth monitor);
- :mod:`repro.cpu` — the trace format, an analytic out-of-order core
  timing model, and single-/multi-core system drivers;
- :mod:`repro.workloads` — 75 seeded synthetic workloads in the paper's
  9 categories, plus multi-programmed mix construction;
- :mod:`repro.metrics` — speedup/coverage aggregation and the appendix's
  pollution classification;
- :mod:`repro.experiments` — one driver per paper figure/table.

Quickstart::

    from repro import System, SystemConfig, build_trace

    trace = build_trace("cloud.bigbench", length=20000)
    baseline = System(SystemConfig.single_thread("none")).run(trace)
    dspatch = System(SystemConfig.single_thread("dspatch+spp")).run(trace)
    print(f"speedup: {dspatch.ipc / baseline.ipc - 1:+.1%}")
"""

from repro.constants import LINE_SIZE, PAGE_SIZE
from repro.core import DSPatch, DSPatchConfig
from repro.engine import (
    InMemoryBackend,
    LocalDirBackend,
    MixSpec,
    RunSpec,
    Session,
    StoreBackend,
    TieredBackend,
    TraceSpec,
    default_session,
)
from repro.cpu import (
    MultiCoreSystem,
    MultiProgramResult,
    RunResult,
    System,
    SystemConfig,
    Trace,
    TraceBuilder,
)
from repro.memory import (
    BandwidthMonitor,
    Cache,
    CacheConfig,
    DramConfig,
    DramModel,
    FixedBandwidth,
    HierarchyConfig,
    MemoryHierarchy,
)
from repro.prefetchers import (
    AMPM,
    BOP,
    EBOP,
    ESPP,
    SMS,
    SPP,
    CompositePrefetcher,
    NullPrefetcher,
    PcStridePrefetcher,
    StreamPrefetcher,
    available_prefetchers,
    build_prefetcher,
)
from repro.prefetchers.bingo import Bingo
from repro.prefetchers.markov import MarkovPrefetcher
from repro.prefetchers.nextline import NextLinePrefetcher
from repro.prefetchers.throttle import FeedbackThrottle, ThrottleConfig
from repro.prefetchers.vldp import VLDP
from repro.workloads.analysis import analyze_trace
from repro.workloads import (
    CATEGORIES,
    MEMORY_INTENSIVE,
    WORKLOADS,
    build_trace,
    workloads_in_category,
)

__version__ = "1.0.0"

__all__ = [
    "AMPM",
    "BOP",
    "BandwidthMonitor",
    "Bingo",
    "CATEGORIES",
    "Cache",
    "CacheConfig",
    "CompositePrefetcher",
    "DSPatch",
    "DSPatchConfig",
    "DramConfig",
    "DramModel",
    "EBOP",
    "ESPP",
    "FeedbackThrottle",
    "FixedBandwidth",
    "HierarchyConfig",
    "InMemoryBackend",
    "LINE_SIZE",
    "LocalDirBackend",
    "MEMORY_INTENSIVE",
    "MarkovPrefetcher",
    "MemoryHierarchy",
    "MixSpec",
    "MultiCoreSystem",
    "MultiProgramResult",
    "NextLinePrefetcher",
    "NullPrefetcher",
    "PAGE_SIZE",
    "PcStridePrefetcher",
    "RunResult",
    "RunSpec",
    "SMS",
    "SPP",
    "Session",
    "StoreBackend",
    "StreamPrefetcher",
    "System",
    "SystemConfig",
    "ThrottleConfig",
    "TieredBackend",
    "Trace",
    "TraceBuilder",
    "TraceSpec",
    "VLDP",
    "WORKLOADS",
    "analyze_trace",
    "available_prefetchers",
    "build_prefetcher",
    "build_trace",
    "default_session",
    "workloads_in_category",
]
