"""Compiled runs lay their flat state out from the config.

A compiled ``System.run``/``MultiCoreSystem.run`` builds no cache,
hierarchy, execution or L1 prefetcher object: ``KernelDomain`` and
``KernelExecution`` lay the state out straight from the
``SystemConfig`` (only the L2 scheme object is built), and results come
from the flat counters.  The from-objects pack remains as the reference
these tests compare against, and as the way the parity tests read an
object run's end state in flat form (``_machine_view`` in
``tests/test_kernel_parity.py``):

1. a compiled run constructs none of those objects;
2. the config-built state equals the from-objects pack of freshly built
   objects, slot for slot and array for array, for every twinned
   registry scheme (plus the baseline and a crossing scheme) at the ST
   and MP geometries and Figure 20's LLC sizes, recording pollution or
   not.
"""

import numpy as np
import pytest

from repro.cpu.core import CoreExecution
from repro.cpu.system import MultiCoreSystem, System, SystemConfig
from repro.kernel import kernel_available, layout
from repro.kernel.execution import KernelDomain, KernelExecution
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
    "spp+bop", "spp+ebop", "spp+sms-256", "spp+bop+dspatch",
    "dspatch-noreset", "dspatch-spt512", "dspatch-spt128", "dspatch-spt64",
    "dspatch-pb128", "dspatch-pb32",
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
    return [
        KernelExecution(
            cfg,
            trace,
            domain,
            record_pollution=cfg.record_pollution_victims,
            l2_prefetcher=build_prefetcher(cfg.l2_prefetcher, domain),
        )
        for _ in range(cores)
    ]


def _packed(cfg, trace, cores=1):
    """``cores`` cores packed from freshly built objects (the reference),
    and their domain."""
    dram = DramModel(cfg.dram)
    llc = Cache(cfg.hierarchy.llc)
    domain = KernelDomain(llc, dram)
    kexes = []
    for _ in range(cores):
        hierarchy = MemoryHierarchy(
            config=cfg.hierarchy,
            dram=dram,
            llc=llc,
            l1_prefetcher=PcStridePrefetcher() if cfg.l1_stride else None,
            l2_prefetcher=build_prefetcher(cfg.l2_prefetcher, domain),
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
    """Make every object build of a compiled run raise."""

    def forbidden(what):
        def fail(*args, **kwargs):
            raise AssertionError(f"a compiled run called {what}")

        return fail

    for cls in (Cache, MemoryHierarchy, CoreExecution, PcStridePrefetcher):
        monkeypatch.setattr(cls, "__init__", forbidden(f"{cls.__name__}()"))


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
