"""Randomized kernel-parity fuzz grid.

The compiled kernel (the runtime-compiled C twin) is an alternative
*execution* of the object model, not an alternative model: every
counter, rate and log a run produces must be bit-for-bit identical to
the object-model loop.  That contract is what lets
``SystemConfig.kernel`` stay out of spec fingerprints (both kernels
share cache entries) and what keeps the object model the executable
spec of the C twin.

The grid here is randomized but *deterministic* (fixed seed): each case
draws a workload, a registry scheme, a trace length, an LLC geometry
(size and associativity) and a warmup fraction, then runs the identical
trace through the object model and through the compiled kernel and
compares ``RunResult.to_dict()`` field-for-field.  A multi-programmed
section does the same through ``MultiCoreSystem`` (shared LLC, per-core
warmup boundaries, global-time interleave) where the kernel crossing
machinery is under the most scheduling pressure.

The parity tests need the compiled kernel and skip, with a reason, on
hosts without a C toolchain (``kernel_available()``): there the object
model is the only kernel, so there is nothing to compare.
"""

import random

import pytest

from repro.cpu.system import MultiCoreSystem, System, SystemConfig
from repro.kernel import kernel_available
from repro.memory.cache import CacheConfig
from repro.memory.dram import MP_DRAM, ST_DRAM
from repro.memory.hierarchy import HierarchyConfig
from repro.workloads.catalog import build_trace

needs_compiled = pytest.mark.skipif(
    not kernel_available(),
    reason="no C toolchain: the compiled kernel cannot be built, so there is "
    "no twin to compare against the object model",
)

# Deterministic fuzz: same seed -> same grid on every run/host, so a
# failure is always reproducible from the printed case id.
_SEED = 0xD5BA7C

_WORKLOADS = (
    "ispec06.mcf",
    "hpc.npb-cg",
    "server.tpcc-1",
    "cloud.memcached",
    "fspec06.libquantum",
    "client.browser",
)
# Every distinct training/candidate shape in the registry: delta walks
# (spp/espp), bit patterns (sms/bingo/dspatch), offset scoring (bop),
# streams (streamer/ampm), correlation (markov/vldp), plus the baseline.
_SCHEMES = (
    "none",
    "streamer",
    "nextline",
    "spp",
    "espp",
    "bop",
    "sms",
    "bingo",
    "ampm",
    "dspatch",
    "markov",
    "vldp",
)
_LLC_GEOMETRIES = (  # (size_bytes, ways) — power-of-two set counts
    (256 * 1024, 8),
    (512 * 1024, 16),
    (1024 * 1024, 8),
    (2 * 1024 * 1024, 16),
)
_WARMUP_FRACS = (0.0, 0.1, 0.25, 0.4)


def _fuzz_cases(n):
    rng = random.Random(_SEED)
    cases = []
    schemes = list(_SCHEMES)
    for i in range(n):
        # First pass walks every scheme once; later passes draw freely.
        scheme = schemes[i] if i < len(schemes) else rng.choice(schemes)
        cases.append(
            (
                scheme,
                rng.choice(_WORKLOADS),
                rng.randrange(1500, 4000),
                rng.choice(_LLC_GEOMETRIES),
                rng.choice(_WARMUP_FRACS),
            )
        )
    return cases


def _config(scheme, llc_geometry, warmup_frac, kernel, dram=ST_DRAM):
    size_bytes, ways = llc_geometry
    base = HierarchyConfig()
    llc = CacheConfig(
        name="LLC",
        size_bytes=size_bytes,
        ways=ways,
        hit_latency=base.llc.hit_latency,
        mshrs=base.llc.mshrs,
        replacement=base.llc.replacement,
    )
    return SystemConfig(
        hierarchy=HierarchyConfig(l1=base.l1, l2=base.l2, llc=llc),
        dram=dram,
        l2_prefetcher=scheme,
        warmup_frac=warmup_frac,
        kernel=kernel,
    )


def _assert_crosses(scheme):
    """``scheme`` has no C twin: its training crosses into Python."""
    from repro.kernel import layout
    from repro.kernel.state import _scheme_kind
    from repro.memory.dram import DramModel
    from repro.prefetchers.registry import build_prefetcher

    dram = DramModel(ST_DRAM)
    assert _scheme_kind(build_prefetcher(scheme, dram.monitor), dram) == layout.SCHEME_PY


def _assert_same(baseline, candidate, label):
    if baseline == candidate:
        return
    diff = {
        key: (baseline[key], candidate[key])
        for key in baseline
        if baseline[key] != candidate[key]
    }
    raise AssertionError(f"{label}: kernel diverges from object model: {diff}")


@needs_compiled
@pytest.mark.parametrize(
    "scheme,workload,length,llc_geometry,warmup_frac",
    _fuzz_cases(14),
    ids=lambda v: str(v).replace(" ", ""),
)
def test_single_thread_parity(scheme, workload, length, llc_geometry, warmup_frac):
    trace = build_trace(workload, length)
    base = System(_config(scheme, llc_geometry, warmup_frac, "object")).run(trace)
    got = System(_config(scheme, llc_geometry, warmup_frac, "compiled")).run(trace)
    _assert_same(base.to_dict(), got.to_dict(), f"{scheme}/{workload}")


def _mp_draw(scheme, warmup_frac):
    """The (workload, length) of each core of one MP parity case.

    Seeded from a string, which ``random`` hashes the same in every
    process (``hash()`` of a str is salted per process), so a case id
    always reproduces its traces.
    """
    rng = random.Random(f"{_SEED}:{scheme}:{warmup_frac}")
    return [(rng.choice(_WORKLOADS), rng.randrange(900, 1600)) for _ in range(4)]


def test_mp_draw_is_stable_across_processes():
    """Regression: the draw once mixed in ``hash((scheme, warmup_frac))``,
    so every process fuzzed different MP traces."""
    import os
    import subprocess
    import sys

    code = "import test_kernel_parity as t; print(t._mp_draw('dspatch', 0.25))"
    path = os.pathsep.join(filter(None, (os.path.dirname(__file__), os.environ.get("PYTHONPATH"))))
    outputs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        outputs.add(proc.stdout)
    assert outputs == {f"{_mp_draw('dspatch', 0.25)}\n"}


@needs_compiled
@pytest.mark.parametrize(
    "scheme,warmup_frac",
    # bop runs its C twin; ampm keeps the Python training crossing.
    [("dspatch", 0.25), ("spp", 0.1), ("bop", 0.0), ("ampm", 0.0)],
)
def test_multi_programmed_parity(scheme, warmup_frac):
    traces = [build_trace(name, length) for name, length in _mp_draw(scheme, warmup_frac)]
    geometry = (2 * 1024 * 1024, 16)  # shared LLC; per-core pressure is the point

    def run(kernel):
        cfg = _config(scheme, geometry, warmup_frac, kernel, dram=MP_DRAM)
        mp = MultiCoreSystem(cfg, num_cores=4).run(traces)
        return [core.to_dict() for core in mp.per_core] + [
            {"global_cycles": mp.global_cycles}
        ]

    if scheme == "ampm":
        _assert_crosses(scheme)
    for core_idx, (base, cand) in enumerate(zip(run("object"), run("compiled"))):
        _assert_same(base, cand, f"mp/{scheme}/core{core_idx}")


def test_kernel_field_absent_from_fingerprints():
    """All kernels are bit-identical, so runs must share cache entries:
    the kernel choice may never reach a spec fingerprint."""
    import dataclasses

    from repro.engine import RunSpec

    assert "kernel" not in [f.name for f in dataclasses.fields(RunSpec)]


def test_unsupported_features_fall_back_to_object():
    """Tracing-on runs use the object path (scheme events and cache
    events only exist there), even with pollution recording on, and
    still produce identical results.  Pollution recording alone does
    not fall back: the kernel records the logs itself."""
    from repro.cpu.system import _resolve_kernel
    from repro.observe.sinks import CollectingSink

    trace = build_trace("ispec06.mcf", 2000)
    plain = System(SystemConfig.single_thread("dspatch")).run(trace)
    for flags in (
        {"trace_prefetch": True},
        {"trace_cache": True},
        {"trace_prefetch": True, "record_pollution_victims": True},
    ):
        cfg = SystemConfig.single_thread("dspatch", kernel="compiled", **flags)
        assert _resolve_kernel(cfg) == "object", flags
        sink = CollectingSink()
        traced = System(cfg, sink=sink).run(trace)
        assert plain.to_dict() == traced.to_dict(), flags
        assert sink.events, flags  # tracing actually happened on the fallback path
    recording = SystemConfig.single_thread(
        "dspatch", kernel="compiled", record_pollution_victims=True
    )
    assert _resolve_kernel(recording) == ("compiled" if kernel_available() else "object")


# ---------------------------------------------------------------------------
# Compiled scheme training (SPP / eSPP / DSPatch / the Section 5.1
# composite / BOP / eBOP / SMS get C twins; everything else batches
# through train_buf).


def test_scheme_kind_detection():
    """The twinned registry shapes get their compiled twin; variants,
    non-default SPP/DSPatch configs, wrappers, traced or instance-hooked
    schemes and unrelated schemes keep the Python crossing."""
    from repro.kernel import layout
    from repro.kernel.state import _scheme_kind
    from repro.memory.dram import DramModel
    from repro.prefetchers.bop import BOP
    from repro.prefetchers.registry import build_prefetcher

    dram = DramModel(ST_DRAM)
    expectations = {
        "spp": layout.SCHEME_SPP,
        "espp": layout.SCHEME_ESPP,
        "dspatch": layout.SCHEME_DSPATCH,
        "spp+dspatch": layout.SCHEME_SPP_DSPATCH,
        # BOP and SMS read their configs from slots: every size twins
        "bop": layout.SCHEME_BOP,
        "bop1": layout.SCHEME_BOP,
        "ebop": layout.SCHEME_EBOP,
        "sms": layout.SCHEME_SMS,
        "sms-4k": layout.SCHEME_SMS,
        "sms-1k": layout.SCHEME_SMS,
        "sms-256": layout.SCHEME_SMS,
        # the streamer reads tracked_pages and degree from slots
        "streamer": layout.SCHEME_STREAMER,
        # no C twin: crossing path
        "dspatch-spt128": layout.SCHEME_PY,  # non-default config
        "alwayscovp": layout.SCHEME_PY,      # subclass variant
        "fdp:spp": layout.SCHEME_PY,         # throttle wrapper
        "fdp:bop": layout.SCHEME_PY,
        "fdp:streamer": layout.SCHEME_PY,
        "spp+bop": layout.SCHEME_PY,         # composite without twin pair
        "spp+sms-256": layout.SCHEME_PY,
        "ampm": layout.SCHEME_PY,
        "none": layout.SCHEME_PY,
    }
    for name, expected in expectations.items():
        pf = build_prefetcher(name, dram.monitor)
        assert _scheme_kind(pf, dram) == expected, name
    # A traced scheme must stay on the object-visible path.
    for name in ("spp", "sms"):
        pf = build_prefetcher(name, dram.monitor)
        pf.attach_trace(lambda *a: None)
        assert _scheme_kind(pf, dram) == layout.SCHEME_PY, f"traced {name}"

    # A subclass may override anything the twin hardcodes.
    from repro.prefetchers.streamer import StreamPrefetcher

    class TunedBop(BOP):
        pass

    class TunedStreamer(StreamPrefetcher):
        pass

    assert _scheme_kind(TunedBop(), dram) == layout.SCHEME_PY
    assert _scheme_kind(TunedStreamer(), dram) == layout.SCHEME_PY
    assert (
        _scheme_kind(StreamPrefetcher(tracked_pages=4, degree=2), dram)
        == layout.SCHEME_STREAMER
    )
    # A hook replaced on the instance would never be called by a twin;
    # a composite is declined when any component is hooked.
    for name, hooked, attr in (
        ("spp", "spp", "note_useful_prefetch"),
        ("bop", "bop", "train"),
        ("sms", "sms", "note_useless_prefetch"),
        ("streamer", "streamer", "train"),
        ("spp+dspatch", "dspatch", "train"),
    ):
        pf = build_prefetcher(name, dram.monitor)
        target = pf
        if "+" in name:
            target = next(c for c in pf.components if c.name == hooked)
        setattr(target, attr, getattr(target, attr))
        assert _scheme_kind(pf, dram) == layout.SCHEME_PY, f"{name}: hooked {attr}"
    # Structural limits the C relies on.
    from repro.prefetchers.bop import BopConfig
    from repro.prefetchers.sms import SMS, SmsConfig

    assert _scheme_kind(BOP(BopConfig(offsets=(1, 2, 1))), dram) == layout.SCHEME_PY
    assert _scheme_kind(SMS(SmsConfig(region_bytes=8192)), dram) == layout.SCHEME_PY
    assert _scheme_kind(SMS(SmsConfig(region_bytes=4096)), dram) == layout.SCHEME_SMS
    assert _scheme_kind(StreamPrefetcher(tracked_pages=0), dram) == layout.SCHEME_PY


_TRAINING_CASES = [
    # Deep SPP lookahead walks: dense sequential misses build confident
    # signatures, long trace drives the walk through many depths.
    ("spp", "fspec06.libquantum", 2600, ST_DRAM),
    ("espp", "fspec06.libquantum", 2600, MP_DRAM),
    # DSPatch bandwidth regimes: the narrow MP DRAM config swings the
    # bucket across the 3/4 CovP/AccP selection threshold mid-run.
    ("dspatch", "ispec06.mcf", 2600, ST_DRAM),
    ("dspatch", "hpc.npb-cg", 2600, MP_DRAM),
    ("espp", "server.tpcc-1", 2200, MP_DRAM),
    # Composite wrappers: the compiled SPP+DSPatch pair (merge dedup in
    # C) and a pair without a twin (batched train_buf crossing).
    ("spp+dspatch", "cloud.memcached", 2400, ST_DRAM),
    ("spp+dspatch", "hpc.npb-cg", 2400, MP_DRAM),
    ("spp+bop", "ispec06.mcf", 2000, ST_DRAM),
    # BOP offset scoring (a phase ends by MaxScore within this trace) and
    # its degree-1 config; eBOP under the narrow MP DRAM, where the bucket
    # crosses all three of eBOP's degree thresholds mid-run.
    ("bop", "fspec06.libquantum", 2600, ST_DRAM),
    ("bop1", "cloud.memcached", 2400, ST_DRAM),
    ("ebop", "hpc.npb-cg", 2600, MP_DRAM),
    # SMS at the paper's 16K-entry PHT and at 256 entries (16 sets), where
    # PHT stores evict.
    ("sms", "server.tpcc-1", 2400, ST_DRAM),
    ("sms-256", "ispec06.mcf", 2600, ST_DRAM),
    # The streamer: dense streams arm it and keep it firing; irregular
    # pages churn its 16-page table, whose LRU entry every new page evicts.
    ("streamer", "fspec06.libquantum", 2600, ST_DRAM),
    ("streamer", "server.tpcc-1", 2400, MP_DRAM),
]


@needs_compiled
@pytest.mark.parametrize(
    "scheme,workload,length,dram",
    _TRAINING_CASES,
    ids=lambda v: getattr(v, "speed_grade", None) and "dram" or str(v),
)
def test_training_heavy_parity(scheme, workload, length, dram):
    trace = build_trace(workload, length)

    def run(warmup_frac, kernel):
        cfg = _config(scheme, _LLC_GEOMETRIES[1], warmup_frac, kernel, dram=dram)
        return System(cfg).run(trace).to_dict()

    for warmup_frac in (0.0, 0.25):
        label = f"train/{scheme}/{workload}/{warmup_frac}"
        _assert_same(run(warmup_frac, "object"), run(warmup_frac, "compiled"), label)


@needs_compiled
def test_batched_crossing_parity_non_compiled_scheme():
    """A scheme without a C twin crosses through the train_buf record
    buffer; results stay bit-identical to the object model."""
    _assert_crosses("ampm")
    trace = build_trace("server.tpcc-1", 2400)
    base = System(_config("ampm", _LLC_GEOMETRIES[0], 0.1, "object")).run(trace).to_dict()
    got = System(_config("ampm", _LLC_GEOMETRIES[0], 0.1, "compiled")).run(trace).to_dict()
    _assert_same(base, got, "batched/ampm")


def _training_state(pf):
    """Structural fingerprint of a scheme's training tables and counters."""
    from repro.core.dspatch import DSPatch
    from repro.prefetchers.bop import BOP
    from repro.prefetchers.composite import CompositePrefetcher
    from repro.prefetchers.sms import SMS
    from repro.prefetchers.spp import SPP
    from repro.prefetchers.streamer import StreamPrefetcher

    if isinstance(pf, StreamPrefetcher):
        # dict order is the page table's LRU order
        return (
            [
                (page, e.last_offset, e.direction, e.confidence)
                for page, e in pf._streams.items()
            ],
            pf.trainings,
        )
    if isinstance(pf, BOP):  # covers EBOP
        return (
            list(pf._rr),
            list(pf._pending_fills),
            list(pf._scores.items()),
            (pf._test_pos, pf._round),
            list(pf.active_offsets),
            (pf.learning_phases, pf.trainings),
        )
    if isinstance(pf, SMS):
        def region_table(table):
            return [
                (region, e.pattern, e.trigger_pc, e.trigger_offset)
                for region, e in table.items()
            ]

        return (
            region_table(pf._at),
            region_table(pf._ft),
            [list(pht_set.items()) for pht_set in pf._pht],
            (pf.trainings, pf.pht_stores, pf.pht_hits),
        )
    if isinstance(pf, CompositePrefetcher):
        return [_training_state(c) for c in pf.components]
    if isinstance(pf, SPP):  # covers ESPP
        return (
            [None if e is None else (e.tag, e.last_offset, e.signature) for e in pf._st],
            list(pf._pt_c_sig),
            [list(row) for row in pf._pt_slots],
            [(g.signature, g.confidence, g.last_offset, g.delta) for g in pf._ghr],
            list(pf._filter),
            (pf.trainings, pf.filtered, pf.feedback_issued, pf.feedback_useful),
        )
    if isinstance(pf, DSPatch):
        return (
            [
                (page, e.pattern, [None if t is None else tuple(t) for t in e.triggers])
                for page, e in pf.page_buffer._pages.items()
            ],
            pf.page_buffer.evictions,
            [
                (e.covp, e.accp, list(e.measure_covp), list(e.or_count), list(e.measure_accp))
                for e in pf.spt._table
            ],
            (
                pf.trainings,
                pf.triggers,
                pf.predictions_covp,
                pf.predictions_accp,
                pf.predictions_suppressed,
            ),
        )
    raise AssertionError(f"no fingerprint for {type(pf).__name__}")


def _monitor_state(dram):
    mon = dram.monitor
    return (
        mon._counter,
        mon._window_end,
        mon.total_cas,
        list(mon._bucket_cycles),
        mon._last_sample_cycle,
    )


def _drained_run(monkeypatch, cfg, traces, build=None):
    """One ``System``/``MultiCoreSystem`` run of ``cfg`` on ``cfg.kernel``:
    its per-core results, each core's L2 scheme with its end-of-run
    drain ``(cycle, state before, state after)``, and the DRAM monitor's
    state after the drain.

    The object kernel is observed at its ``flush_training_with_cycle``.
    A compiled run keeps its state in flat form, writes nothing back and
    has no drain, so here its LLC and cores are packed from freshly
    built objects instead (the state
    ``test_config_built_state_equals_object_pack`` pins equal to the
    config-built one); after the run the test asks for the full
    write-back and drains each restored scheme at its core's final
    cycle, in core order, as the object path does.  ``build``, when
    given, replaces the registry builder, so any config can run.
    """
    import repro.cpu.system as system_mod
    from repro.cpu.core import CoreExecution
    from repro.kernel import execution as kexec
    from repro.memory.cache import Cache
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.prefetchers.stride import PcStridePrefetcher

    drams, flushed, domains, cores = [], [], [], []
    real_flush = system_mod.flush_training_with_cycle
    real_dram = system_mod.DramModel

    def recording_dram(config):
        drams.append(real_dram(config))
        return drams[-1]

    def capturing_flush(pf, cycle):
        before = _training_state(pf)
        real_flush(pf, cycle)
        flushed.append((pf, (cycle, before, _training_state(pf))))

    class PackedDomain(kexec.KernelDomain):
        def __init__(self, llc_config, dram):
            super().__init__(Cache(llc_config), dram)
            domains.append(self)

    class PackedExecution(kexec.KernelExecution):
        def __init__(self, cfg, trace, domain, record_pollution=False, l2_prefetcher=None):
            shared = domain.shared_state
            hierarchy = MemoryHierarchy(
                config=cfg.hierarchy,
                dram=shared.dram_obj,
                llc=shared.llc_obj,
                l1_prefetcher=PcStridePrefetcher() if cfg.l1_stride else None,
                l2_prefetcher=l2_prefetcher,
            )
            execution = CoreExecution(cfg.core, trace, hierarchy)
            super().__init__(execution, trace, domain, record_pollution)
            cores.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(system_mod, "flush_training_with_cycle", capturing_flush)
        patch.setattr(system_mod, "DramModel", recording_dram)
        patch.setattr(kexec, "KernelDomain", PackedDomain)
        patch.setattr(kexec, "KernelExecution", PackedExecution)
        if build is not None:
            patch.setattr(system_mod, "build_prefetcher", lambda name, bw: build(bw))
        if len(traces) == 1:
            results = [System(cfg).run(traces[0])]
        else:
            results = MultiCoreSystem(cfg, num_cores=len(traces)).run(traces).per_core
        if cfg.kernel == "compiled":
            assert not flushed, "a compiled run drained its scheme"
            assert len(cores) == len(traces)
            for kex in cores:
                kex.write_back()
            # The scheme still reads the kernel domain's live monitor, so
            # the domain is written back after the drain.
            for kex in cores:
                capturing_flush(kex.l2_prefetcher, int(kex.time))
            (domain,) = domains
            domain.write_back()
    (dram,) = drams
    pfs, states = zip(*flushed)
    return [r.to_dict() for r in results], list(states), _monitor_state(dram), list(pfs)


@needs_compiled
@pytest.mark.parametrize("cores", (1, 4), ids=("st", "mp"))
@pytest.mark.parametrize("warmup_frac", (0.0, 0.25))
@pytest.mark.parametrize("scheme", ("dspatch", "spp+dspatch", "sms", "bop", "streamer", "spp"))
def test_flush_training_sees_identical_residual_state(scheme, warmup_frac, cores, monkeypatch):
    """The end-of-run drain must observe the same residual training state
    — and the same run-final cycle, which sets DSPatch's bandwidth bucket
    for the drained pages — whether training ran in generated C or in
    Python, and leave the same state and DRAM monitor behind.  A
    compiled run has no drain, so its state is written back on request
    and drained there (see :func:`_drained_run`).  The state before the
    drain covers DSPatch's page buffer (pages and LRU order) and SMS's
    AT and FT; SMS's drain stores its whole AT into the PHT, so the AT
    and PHT order both matter; the streamer's page table is written
    back in its dict (LRU) order."""
    if cores == 1:
        traces = [build_trace("cloud.memcached", 2000)]
        dram = ST_DRAM
    else:
        traces = [build_trace(name, length) for name, length in _mp_draw(scheme, warmup_frac)]
        dram = MP_DRAM

    def run(kernel):
        cfg = _config(scheme, _LLC_GEOMETRIES[0], warmup_frac, kernel, dram=dram)
        return _drained_run(monkeypatch, cfg, traces)[:3]

    base_results, base_states, base_monitor = run("object")
    got_results, got_states, got_monitor = run("compiled")
    for core, (want, have) in enumerate(zip(base_results, got_results)):
        _assert_same(want, have, f"drain/{scheme}/core{core}")
    assert len(got_states) == len(traces)
    for core, (want, have) in enumerate(zip(base_states, got_states)):
        assert have[:2] == want[:2], f"state before the drain diverges on core {core}"
        assert have[2] == want[2], f"drained state diverges on core {core}"
    assert got_monitor == base_monitor, "DRAM monitor diverges after the drain"


def _run_capturing_scheme(monkeypatch, scheme, trace, kernel, dram=ST_DRAM, build=None):
    """``System.run`` result plus the scheme's end-of-run drain ``(cycle,
    state before, state after)`` (see :func:`_drained_run`), and the
    scheme object itself."""
    cfg = _config(scheme, _LLC_GEOMETRIES[1], 0.0, kernel, dram=dram)
    (result,), (state,), _monitor, (pf,) = _drained_run(monkeypatch, cfg, [trace], build)
    return result, state, pf


@needs_compiled
@pytest.mark.parametrize(
    "workload,length,ending",
    # A phase ends when an offset reaches MaxScore (regular strides score
    # fast) or after MaxRound rounds (irregular accesses rarely score).
    [("fspec06.libquantum", 2600, "max_score"), ("server.tpcc-1", 6000, "max_round")],
)
def test_bop_learning_phases_end_alike(workload, length, ending, monkeypatch):
    """BOP's learning phase ends mid-train (MaxScore) or at a round
    boundary (MaxRound); the twin ranks the offsets like the spec's
    stable sort and writes the learned state back exactly."""
    from repro.prefetchers.bop import BOP

    trace = build_trace(workload, length)
    endings = []
    real_finish = BOP._finish_phase

    def spying_finish(self):
        endings.append("max_round" if self._round >= self.config.max_round else "max_score")
        real_finish(self)

    monkeypatch.setattr(BOP, "_finish_phase", spying_finish)
    base, base_state, _ = _run_capturing_scheme(monkeypatch, "bop", trace, "object")
    assert ending in endings
    got, got_state, pf = _run_capturing_scheme(monkeypatch, "bop", trace, "compiled")
    _assert_same(base, got, f"bop-phases/{workload}")
    assert got_state == base_state
    assert pf.learning_phases > 0


def _small_bop(bw):
    from repro.prefetchers.bop import BopConfig, EBOP

    cfg = BopConfig(
        rr_entries=64,
        max_round=3,
        max_score=6,
        bad_score=2,
        degree=3,
        offsets=(1, 2, 3, 4, -1, -2, 6, 8, 12, -4, 16),
        fill_delay_cycles=120,
    )
    return EBOP(bw, cfg)


def _wide_sms(bw):
    from repro.prefetchers.sms import SMS, SmsConfig

    # 64-line regions put bit 63 in patterns; a tiny PHT keeps evicting.
    return SMS(SmsConfig(region_bytes=4096, at_entries=8, ft_entries=4, pht_entries=64, pht_ways=4))


def _narrow_sms(bw):
    from repro.prefetchers.sms import SMS, SmsConfig

    return SMS(SmsConfig(region_bytes=512, at_entries=16, ft_entries=8, pht_entries=512, pht_ways=8))


@needs_compiled
@pytest.mark.parametrize("build", (_small_bop, _wide_sms, _narrow_sms), ids=lambda f: f.__name__)
@pytest.mark.parametrize("workload", ("hpc.npb-cg", "ispec06.mcf"))
def test_non_default_configs_twin_from_slots(build, workload, monkeypatch):
    """BOP and SMS twins read every config value from flat-state slots:
    sizes and thresholds other than the registry's run compiled and
    stay bit-identical, state included."""
    from repro.kernel import layout
    from repro.kernel.state import _scheme_kind
    from repro.memory.dram import DramModel

    dram = DramModel(MP_DRAM)
    assert _scheme_kind(build(dram), dram) != layout.SCHEME_PY
    trace = build_trace(workload, 2600)
    base, base_state, _ = _run_capturing_scheme(
        monkeypatch, "custom", trace, "object", dram=MP_DRAM, build=build
    )
    got, got_state, _ = _run_capturing_scheme(
        monkeypatch, "custom", trace, "compiled", dram=MP_DRAM, build=build
    )
    _assert_same(base, got, f"slots/{build.__name__}/{workload}")
    assert got_state == base_state


@needs_compiled
@pytest.mark.parametrize("scheme", ("bop", "ebop"))
def test_bop_pending_ring_grows_never_truncates(scheme, monkeypatch):
    """BOP's pending-fill FIFO is unbounded in the spec.  Started at the
    smallest ring, the twin stops between ops to grow it (RC_GROW) many
    times; results and the written-back queue stay exact."""
    import repro.kernel.state as state_mod

    trace = build_trace("hpc.npb-cg", 2600)
    base, base_state, _ = _run_capturing_scheme(monkeypatch, scheme, trace, "object", dram=MP_DRAM)
    grows = []
    real_grow = state_mod.KernelState.grow_pending_ring

    def counting_grow(self):
        grows.append(1)
        real_grow(self)

    monkeypatch.setattr(state_mod, "_ring_cap", state_mod._next_pow2)
    monkeypatch.setattr(state_mod.KernelState, "grow_pending_ring", counting_grow)
    got, got_state, _ = _run_capturing_scheme(monkeypatch, scheme, trace, "compiled", dram=MP_DRAM)
    assert len(grows) >= 3
    _assert_same(base, got, f"ring/{scheme}")
    assert got_state == base_state


@needs_compiled
@pytest.mark.parametrize(
    "scheme,workload,switch_at",
    # At the switch, BOP has ended a phase (learned active offsets) with
    # fills pending; SMS has a full AT, a part-filled FT and PHT entries
    # in many sets (all 16 sets of sms-256).
    [
        ("bop", "fspec06.libquantum", 2000),
        ("ebop", "fspec06.libquantum", 2000),
        ("sms", "server.tpcc-1", 1500),
        ("sms-256", "server.tpcc-1", 1500),
    ],
)
def test_mid_run_pack_carries_scheme_state(scheme, workload, switch_at):
    """Packing a scheme that already trained — non-empty RR table,
    pending fills, scores and active offsets; filled AT, FT and PHT sets
    — and finishing the run compiled equals running the object model
    throughout, state included."""
    from repro.cpu.core import CoreExecution
    from repro.cpu.system import _result_from
    from repro.kernel.execution import KernelDomain, KernelExecution
    from repro.memory.dram import DramModel
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.prefetchers.registry import build_prefetcher
    from repro.prefetchers.stride import PcStridePrefetcher

    trace = build_trace(workload, 3000)
    cfg = SystemConfig.single_thread(scheme, dram=MP_DRAM)

    def run(switch_at):
        dram = DramModel(cfg.dram)
        pf = build_prefetcher(scheme, dram)
        hierarchy = MemoryHierarchy(
            config=cfg.hierarchy, dram=dram, l1_prefetcher=PcStridePrefetcher(), l2_prefetcher=pf
        )
        execution = CoreExecution(cfg.core, trace, hierarchy)
        execution.run_ops(switch_at)
        if switch_at < len(trace):
            domain = KernelDomain(hierarchy.llc, dram)
            kex = KernelExecution(execution, trace, domain)
            domain.interleave([kex])
            kex.write_back()
            domain.write_back()
        return _result_from(execution, hierarchy, dram).to_dict(), _training_state(pf)

    base_result, base_state = run(len(trace))
    got_result, got_state = run(switch_at)
    _assert_same(base_result, got_result, f"mid-run/{scheme}")
    assert got_state == base_state


@needs_compiled
@pytest.mark.parametrize(
    "scheme,delivered",
    # ampm and streamer inherit Prefetcher's no-op note hooks; a
    # composite and the fdp: throttle read their notes.
    [("ampm", False), ("streamer", False), ("spp+bop", True), ("fdp:ampm", True)],
)
def test_notes_queue_only_for_schemes_that_read_them(scheme, delivered, monkeypatch):
    """A crossing scheme whose note hooks are the base no-ops gets no
    usefulness notes queued or drained; results stay bit-identical."""
    from repro.kernel.cbuild import CRuntime

    drained = []
    real_drain = CRuntime._drain_notes

    def counting_drain(self):
        drained.append(1)
        real_drain(self)

    trace = build_trace("server.tpcc-1", 2400)
    base = System(_config(scheme, _LLC_GEOMETRIES[0], 0.1, "object")).run(trace).to_dict()
    monkeypatch.setattr(CRuntime, "_drain_notes", counting_drain)
    got = System(_config(scheme, _LLC_GEOMETRIES[0], 0.1, "compiled")).run(trace).to_dict()
    _assert_same(base, got, f"notes/{scheme}")
    assert bool(drained) == delivered


# ---------------------------------------------------------------------------
# Pollution recording: the kernel records the three logs PollutionCollector
# derives on the object path (the spec), into per-core arrays.

_LOGS = ("demand_log", "prefetch_fill_log", "pollution_events")


def _assert_same_logs(base, got, label):
    """Equal logs, element types included: perfbench's sim_digest hashes
    their ``repr``, and results pickle them."""
    for name in _LOGS:
        want, have = getattr(base, name), getattr(got, name)
        assert type(have) is type(want), f"{label}: {name} container"
        assert have == want, f"{label}: {name} diverges ({len(want)} vs {len(have)} entries)"
        assert repr(have) == repr(want), f"{label}: {name} element types"
        for entry in have[:1]:
            fields = entry if isinstance(entry, tuple) else (entry.ordinal, entry.victim_line)
            assert all(type(v) is int for v in fields), f"{label}: {name} {entry!r}"


def _recording(scheme, llc_geometry, warmup_frac, kernel, dram=ST_DRAM):
    import dataclasses

    cfg = _config(scheme, llc_geometry, warmup_frac, kernel, dram=dram)
    return dataclasses.replace(cfg, record_pollution_victims=True)


@needs_compiled
@pytest.mark.parametrize("warmup_frac", (0.0, 0.25))
@pytest.mark.parametrize("llc_geometry", ((256 * 1024, 8), (1024 * 1024, 16)), ids=("256KB", "1MB"))
@pytest.mark.parametrize(
    "scheme,workload",
    # the streamer twin (Figure 20's scheme), a crossing scheme and the
    # SPP+DSPatch twin
    [("streamer", "ispec06.mcf"), ("ampm", "server.tpcc-1"), ("spp+dspatch", "hpc.npb-cg")],
)
def test_pollution_logs_parity(scheme, workload, llc_geometry, warmup_frac):
    """Compiled pollution runs record the object run's logs exactly."""
    if scheme == "ampm":
        _assert_crosses(scheme)
    trace = build_trace(workload, 2400)
    base = System(_recording(scheme, llc_geometry, warmup_frac, "object")).run(trace)
    got = System(_recording(scheme, llc_geometry, warmup_frac, "compiled")).run(trace)
    label = f"logs/{scheme}/{llc_geometry[0]}/{warmup_frac}"
    _assert_same(base.to_dict(), got.to_dict(), label)
    _assert_same_logs(base, got, label)
    assert base.demand_log and base.prefetch_fill_log
    if llc_geometry[0] == 256 * 1024:
        assert base.pollution_events  # a small LLC makes prefetch fills evict


@needs_compiled
def test_pollution_logs_parity_multi_programmed():
    """Four cores over one shared LLC: each core logs its own ordinals,
    and a victim belongs to the core whose prefetch fill evicted it."""
    traces = [build_trace(name, length) for name, length in _mp_draw("streamer", 0.25)]

    def run(kernel):
        cfg = _recording("streamer", (512 * 1024, 16), 0.25, kernel, dram=MP_DRAM)
        return MultiCoreSystem(cfg, num_cores=4).run(traces)

    base, got = run("object"), run("compiled")
    assert base.global_cycles == got.global_cycles
    for core, (want, have) in enumerate(zip(base.per_core, got.per_core)):
        label = f"mp-logs/core{core}"
        _assert_same(want.to_dict(), have.to_dict(), label)
        _assert_same_logs(want, have, label)
    assert sum(len(core.pollution_events) for core in base.per_core)


@needs_compiled
def test_pollution_logs_grow_never_truncate(monkeypatch):
    """The logs are unbounded in the spec.  Started two pairs long, they
    grow at many RC_GROW stops between ops; every entry survives every
    growth."""
    import repro.kernel.state as state_mod

    trace = build_trace("ispec06.mcf", 3000)
    geometry = (256 * 1024, 8)
    base = System(_recording("streamer", geometry, 0.0, "object")).run(trace)
    grows = []
    real_grow = state_mod.KernelState.grow

    def counting_grow(self):
        grows.append(1)
        real_grow(self)

    monkeypatch.setattr(state_mod, "LOG_CAP0", 2)
    monkeypatch.setattr(state_mod.KernelState, "grow", counting_grow)
    got = System(_recording("streamer", geometry, 0.0, "compiled")).run(trace)
    assert len(grows) >= 3
    _assert_same(base.to_dict(), got.to_dict(), "grow")
    _assert_same_logs(base, got, "grow")
    assert len(base.demand_log) > 1000 and len(base.pollution_events) > 1000


@needs_compiled
def test_pollution_recording_runs_compiled(monkeypatch):
    """A compiled pollution run never enters the object model's op loop,
    and the streamer trains in its C twin (no Python train call)."""
    from repro.cpu.core import CoreExecution
    from repro.prefetchers.streamer import StreamPrefetcher

    def object_loop(self, *args, **kwargs):
        raise AssertionError("pollution run took the object path")

    def python_train(self, *args):
        raise AssertionError("the streamer crossed into Python")

    trace = build_trace("ispec06.mcf", 2000)
    monkeypatch.setattr(CoreExecution, "run_ops_until", object_loop)
    monkeypatch.setattr(StreamPrefetcher, "train", python_train)
    result = System(_recording("streamer", (256 * 1024, 8), 0.25, "compiled")).run(trace)
    assert result.demand_log and result.pollution_events
