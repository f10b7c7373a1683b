"""Compiled runs lay their flat state out from the config.

A compiled ``System.run``/``MultiCoreSystem.run`` builds no cache,
hierarchy, execution or L1 prefetcher object: ``KernelDomain`` and
``KernelExecution`` lay the state out straight from the
``SystemConfig`` (only the L2 scheme object is built), results come from
the flat counters, and nothing is drained or written back.  The
from-objects pack and the full write-back remain as the reference these
tests compare against and as the way tests read the twin's state:

1. a compiled run constructs none of those objects and calls no
   write-back, no cache unpack and no ``flush_training``;
2. the config-built state equals the from-objects pack of freshly built
   objects, slot for slot and array for array, for every twinned
   registry scheme (plus the baseline and a crossing scheme) at the ST
   and MP geometries and Figure 20's LLC sizes, recording pollution or
   not;
3. a requested write-back restores the cache contents the object model
   leaves.
"""

import numpy as np
import pytest

from repro.cpu.core import CoreExecution
from repro.cpu.system import MultiCoreSystem, System, SystemConfig
from repro.kernel import kernel_available, layout
from repro.kernel.execution import KernelBandwidth, KernelDomain, KernelExecution
from repro.memory.cache import Cache
from repro.memory.dram import DramModel
from repro.memory.hierarchy import MemoryHierarchy
from repro.prefetchers.registry import build_prefetcher
from repro.prefetchers.stride import PcStridePrefetcher
from repro.workloads.catalog import build_trace
from repro.workloads.mixes import build_mix_traces

pytestmark = pytest.mark.skipif(
    not kernel_available(), reason="no C toolchain: the compiled kernel cannot be built"
)

#: Every registry scheme with a C twin, the baseline, and one crossing
#: scheme (its object stays live; only its flags are packed).
SCHEMES = (
    "spp", "espp", "dspatch", "spp+dspatch",
    "bop", "bop1", "ebop",
    "sms", "sms-4k", "sms-1k", "sms-256",
    "streamer",
    "none", "ampm",
)

#: (factory, LLC bytes): the ST and MP machines and Figure 20's LLC sizes.
GEOMETRIES = (
    (SystemConfig.single_thread, 2 << 20),
    (SystemConfig.multi_programmed, 8 << 20),
    (SystemConfig.single_thread, 1 << 20),
    (SystemConfig.single_thread, 512 << 10),
    (SystemConfig.single_thread, 256 << 10),
)


def _fresh(cfg, trace, cores=1):
    """``cores`` cores laid out from ``cfg``, as the compiled driver does."""
    dram = DramModel(cfg.dram)
    domain = KernelDomain(cfg.hierarchy.llc, dram)
    bandwidth = KernelBandwidth(dram)
    bandwidth.attach(domain)
    return [
        KernelExecution(
            cfg,
            trace,
            domain,
            record_pollution=cfg.record_pollution_victims,
            l2_prefetcher=build_prefetcher(cfg.l2_prefetcher, bandwidth),
        )
        for _ in range(cores)
    ]


def _packed(cfg, trace, cores=1):
    """``cores`` cores packed from freshly built objects (the reference),
    and their domain."""
    dram = DramModel(cfg.dram)
    llc = Cache(cfg.hierarchy.llc)
    domain = KernelDomain(llc, dram)
    bandwidth = KernelBandwidth(dram)
    bandwidth.attach(domain)
    kexes = []
    for _ in range(cores):
        hierarchy = MemoryHierarchy(
            config=cfg.hierarchy,
            dram=dram,
            llc=llc,
            l1_prefetcher=PcStridePrefetcher() if cfg.l1_stride else None,
            l2_prefetcher=build_prefetcher(cfg.l2_prefetcher, bandwidth),
        )
        execution = CoreExecution(cfg.core, trace, hierarchy)
        kexes.append(
            KernelExecution(execution, trace, domain, cfg.record_pollution_victims)
        )
    return kexes, domain


def _assert_same_state(got, want, label):
    got_arrays, want_arrays = got.state.array_map(), want.state.array_map()
    assert set(got_arrays) == set(want_arrays) == set(layout.PTR_NAMES)
    for name in layout.PTR_NAMES:
        a, b = got_arrays[name], want_arrays[name]
        assert a.dtype == b.dtype and a.shape == b.shape, f"{label}: {name} layout"
        assert a.flags.c_contiguous, f"{label}: {name} is not contiguous"
        assert np.array_equal(a, b), f"{label}: {name} differs"
    for slots, table in (
        ("ci64", layout.CI64),
        ("cf64", layout.CF64),
        ("si64", layout.SI64),
        ("sf64", layout.SF64),
    ):
        for slot, idx in table.items():
            assert got_arrays[slots][idx] == want_arrays[slots][idx], f"{label}: {slots}.{slot}"
    assert got.state.scheme_kind == want.state.scheme_kind, f"{label}: scheme kind"


@pytest.mark.parametrize("scheme", SCHEMES)
def test_config_built_state_equals_object_pack(scheme):
    trace = build_trace("ispec06.mcf", 300)
    if scheme not in ("none", "ampm"):
        kex = _fresh(SystemConfig.single_thread(scheme), trace)[0]
        assert kex.state.scheme_kind != layout.SCHEME_PY, f"{scheme} lost its twin"
    for factory, llc_bytes in GEOMETRIES:
        for record_pollution in (False, True):
            cfg = factory(scheme, llc_bytes=llc_bytes, record_pollution_victims=record_pollution)
            cores = 2 if factory is SystemConfig.multi_programmed else 1
            fresh = _fresh(cfg, trace, cores)
            packed, _domain = _packed(cfg, trace, cores)
            for core, (got, want) in enumerate(zip(fresh, packed)):
                label = f"{scheme}/{llc_bytes >> 10}KB/pollution={record_pollution}/core{core}"
                _assert_same_state(got, want, label)


def test_config_built_state_without_l1_prefetcher():
    """``l1_stride=False`` lays out the dummy stride table the object pack
    gives a hierarchy without an L1 prefetcher."""
    import dataclasses

    trace = build_trace("ispec06.mcf", 300)
    cfg = dataclasses.replace(SystemConfig.single_thread("spp+dspatch"), l1_stride=False)
    (got,), ((want,), _domain) = _fresh(cfg, trace), _packed(cfg, trace)
    _assert_same_state(got, want, "no-l1pf")
    assert got.state.ci64[layout.CI64["has_l1pf"]] == 0


def _forbid_object_round_trip(monkeypatch):
    """Make every object build, write-back, cache unpack and drain of a
    compiled run raise."""
    import repro.kernel.state as state_mod
    from repro.core.dspatch import DSPatch
    from repro.prefetchers.composite import CompositePrefetcher
    from repro.prefetchers.sms import SMS

    def forbidden(what):
        def fail(*args, **kwargs):
            raise AssertionError(f"a compiled run called {what}")

        return fail

    for cls in (Cache, MemoryHierarchy, CoreExecution, PcStridePrefetcher):
        monkeypatch.setattr(cls, "__init__", forbidden(f"{cls.__name__}()"))
    write_backs = [name for name in vars(state_mod.KernelState) if name.startswith("_write_back")]
    assert write_backs
    for name in write_backs:
        monkeypatch.setattr(state_mod.KernelState, name, forbidden(name))
    monkeypatch.setattr(state_mod, "_unpack_cache", forbidden("_unpack_cache"))
    for cls in (DSPatch, SMS, CompositePrefetcher):
        monkeypatch.setattr(cls, "flush_training", forbidden(f"{cls.__name__}.flush_training"))


def test_compiled_single_thread_run_skips_the_object_model(monkeypatch):
    trace = build_trace("cloud.memcached", 2000)
    want = System(SystemConfig.single_thread("spp+dspatch", kernel="object")).run(trace)
    _forbid_object_round_trip(monkeypatch)
    got = System(SystemConfig.single_thread("spp+dspatch", kernel="compiled")).run(trace)
    assert got == want


def test_compiled_mix_skips_the_object_model(monkeypatch):
    traces = build_mix_traces(["ispec06.mcf", "hpc.npb-cg", "cloud.memcached", "server.tpcc-1"], 800)
    want = MultiCoreSystem(SystemConfig.multi_programmed("spp+dspatch", kernel="object")).run(traces)
    _forbid_object_round_trip(monkeypatch)
    got = MultiCoreSystem(SystemConfig.multi_programmed("spp+dspatch", kernel="compiled")).run(traces)
    assert got == want


def _cache_contents(cache):
    return [
        [(tag, cl.dirty, cl.prefetched, cl.used, cl.last_touch, cl.ready) for tag, cl in s.items()]
        for s in cache._sets
    ]


@pytest.mark.parametrize("scheme", ("spp+dspatch", "sms"))
def test_write_back_restores_cache_contents(scheme):
    """A requested write-back restores every cache level's lines and
    recency tick as the object model leaves them."""
    from repro.cpu.core import interleave_two_level

    trace = build_trace("cloud.memcached", 1500)
    cfg = SystemConfig.single_thread(scheme, warmup_frac=0.0)

    # The object model, run to the end.
    dram = DramModel(cfg.dram)
    hierarchy = MemoryHierarchy(
        config=cfg.hierarchy,
        dram=dram,
        l1_prefetcher=PcStridePrefetcher(),
        l2_prefetcher=build_prefetcher(scheme, dram),
    )
    interleave_two_level([CoreExecution(cfg.core, trace, hierarchy)])

    (kex,), domain = _packed(cfg, trace)
    domain.interleave([kex])
    kex.write_back()
    domain.write_back()
    packed = kex.execution.hierarchy
    for level in ("l1", "l2", "llc"):
        got, want = getattr(packed, level), getattr(hierarchy, level)
        assert _cache_contents(got) == _cache_contents(want), level
        assert got._tick == want._tick, level
