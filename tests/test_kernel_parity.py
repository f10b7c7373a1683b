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
compares ``RunResult.to_dict()`` field-for-field, whose four prefetch
counts (issued, useful, late, useless) are the whole ``PrefetchStats``.
A multi-programmed section does the same through ``MultiCoreSystem``
(shared LLC, per-core warmup boundaries, global-time interleave) where
the kernel crossing machinery is under the most scheduling pressure.
The end-state rows also compare the whole machine at the end of the run
in flat form (:func:`_machine_view`): the compiled run's live flat state
against the object run's end state, packed.

The parity tests need the compiled kernel and skip, with a reason, on
hosts without a C toolchain (``kernel_available()``): there the object
model is the only kernel, so there is nothing to compare.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.cpu.system import MultiCoreSystem, System, SystemConfig
from repro.kernel import kernel_available, layout
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


def _resized(config, geometry):
    """``config`` (a ``CacheConfig``) at another ``(size_bytes, ways)``."""
    return dataclasses.replace(config, size_bytes=geometry[0], ways=geometry[1])


def _config(scheme, llc_geometry, warmup_frac, kernel, dram=ST_DRAM, l2=None):
    """A machine with the LLC at ``llc_geometry`` and, when given, the L2
    at ``l2`` (both ``(size_bytes, ways)``)."""
    base = HierarchyConfig()
    return SystemConfig(
        hierarchy=HierarchyConfig(
            l1=base.l1,
            l2=base.l2 if l2 is None else _resized(base.l2, l2),
            llc=_resized(base.llc, llc_geometry),
        ),
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


def _st_result(cfg, trace):
    """``System(cfg).run(trace)``'s ``to_dict()``."""
    return System(cfg).run(trace).to_dict()


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
    base = _st_result(_config(scheme, llc_geometry, warmup_frac, "object"), trace)
    got = _st_result(_config(scheme, llc_geometry, warmup_frac, "compiled"), trace)
    _assert_same(base, got, f"{scheme}/{workload}")


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
# Compiled scheme training (SPP / eSPP / DSPatch / BOP / eBOP / SMS / the
# streamer get C twins, and a composite of twins is their list; everything
# else crosses into Python on every training access).


def test_scheme_kind_detection():
    """The gate lists each twinned registry scheme's component twins in
    arbitration order; uncompressed DSPatch, composites with two
    components of one table family or one without a twin, wrappers,
    subclasses, configs the C cannot hold, traced or instance-hooked
    schemes and unrelated schemes keep the Python crossing."""
    from repro.core.dspatch import DSPatch, DSPatchConfig
    from repro.kernel import layout
    from repro.kernel.state import _scheme_kind
    from repro.memory.dram import DramModel
    from repro.prefetchers.bop import BOP
    from repro.prefetchers.registry import build_prefetcher
    from repro.prefetchers.spp import ESPP, SPP, SppConfig

    SPP_, ESPP_, DP, BOP_, EBOP_, SMS_, ST = (
        layout.SCHEME_SPP,
        layout.SCHEME_ESPP,
        layout.SCHEME_DSPATCH,
        layout.SCHEME_BOP,
        layout.SCHEME_EBOP,
        layout.SCHEME_SMS,
        layout.SCHEME_STREAMER,
    )
    dram = DramModel(ST_DRAM)
    expectations = {
        "spp": (SPP_,),
        "espp": (ESPP_,),
        "dspatch": (DP,),
        # a composite twins as the list of its components' twins
        "spp+dspatch": (SPP_, DP),
        "spp+bop": (SPP_, BOP_),
        "spp+ebop": (SPP_, EBOP_),
        "spp+sms-256": (SPP_, SMS_),
        "spp+bop+dspatch": (SPP_, BOP_, DP),
        # every twin reads its config from slots: every size twins
        "dspatch-noreset": (DP,),
        "dspatch-spt512": (DP,),
        "dspatch-spt128": (DP,),
        "dspatch-spt64": (DP,),
        "dspatch-pb128": (DP,),
        "dspatch-pb32": (DP,),
        # the ablations are DSPatch configs: selection, anchoring, trigger
        "alwayscovp": (DP,),
        "modcovp": (DP,),
        "dspatch-noanchor": (DP,),
        "dspatch-1trigger": (DP,),
        "spp+alwayscovp": (SPP_, DP),
        "spp+modcovp": (SPP_, DP),
        "bop": (BOP_,),
        "bop1": (BOP_,),
        "ebop": (EBOP_,),
        "sms": (SMS_,),
        "sms-4k": (SMS_,),
        "sms-1k": (SMS_,),
        "sms-256": (SMS_,),
        "streamer": (ST,),
        # no C twin: crossing path
        "dspatch-64b": layout.SCHEME_PY,       # uncompressed patterns
        "spp+dspatch-64b": layout.SCHEME_PY,   # a component without a twin
        "spp+espp": layout.SCHEME_PY,          # two of one table family
        "bop+ebop": layout.SCHEME_PY,
        "fdp:spp": layout.SCHEME_PY,           # throttle wrapper
        "fdp:bop": layout.SCHEME_PY,
        "fdp:streamer": layout.SCHEME_PY,
        "ampm": layout.SCHEME_PY,
        "vldp": layout.SCHEME_PY,
        "bingo": layout.SCHEME_PY,
        "markov": layout.SCHEME_PY,
        "nextline": layout.SCHEME_PY,
        "nextline-4": layout.SCHEME_PY,
        "none": layout.SCHEME_PY,
    }
    for name, expected in expectations.items():
        pf = build_prefetcher(name, dram.monitor)
        assert _scheme_kind(pf, dram) == expected, name
    # A traced scheme must stay on the object-visible path.
    for name in ("spp", "sms", "spp+bop"):
        pf = build_prefetcher(name, dram.monitor)
        pf.attach_trace(lambda *a: None)
        assert _scheme_kind(pf, dram) == layout.SCHEME_PY, f"traced {name}"

    # A subclass may override anything the twin hardcodes.
    from repro.prefetchers.streamer import StreamPrefetcher

    class TunedBop(BOP):
        pass

    class TunedStreamer(StreamPrefetcher):
        pass

    class TunedDSPatch(DSPatch):
        pass

    assert _scheme_kind(TunedBop(), dram) == layout.SCHEME_PY
    assert _scheme_kind(TunedDSPatch(dram), dram) == layout.SCHEME_PY
    assert _scheme_kind(TunedStreamer(), dram) == layout.SCHEME_PY
    assert _scheme_kind(StreamPrefetcher(tracked_pages=4, degree=2), dram) == (ST,)
    # A hook replaced on the instance would never be called by a twin;
    # a composite is declined when it or any component is hooked.
    for name, hooked, attr in (
        ("spp", "spp", "note_useful_prefetch"),
        ("bop", "bop", "train"),
        ("sms", "sms", "note_useless_prefetch"),
        ("streamer", "streamer", "train"),
        ("spp+dspatch", "dspatch", "train"),
        ("spp+bop", "spp+bop", "note_useless_prefetch"),
    ):
        pf = build_prefetcher(name, dram.monitor)
        target = pf if hooked == name else next(c for c in pf.components if c.name == hooked)
        setattr(target, attr, getattr(target, attr))
        assert _scheme_kind(pf, dram) == layout.SCHEME_PY, f"{name}: hooked {attr}"
    # Structural limits the C relies on, one row each.
    from repro.prefetchers.bop import BopConfig
    from repro.prefetchers.sms import SMS, SmsConfig

    assert _scheme_kind(BOP(BopConfig(offsets=(1, 2, 1))), dram) == layout.SCHEME_PY
    assert _scheme_kind(SMS(SmsConfig(region_bytes=8192)), dram) == layout.SCHEME_PY
    assert _scheme_kind(SMS(SmsConfig(region_bytes=4096)), dram) == (SMS_,)
    assert _scheme_kind(StreamPrefetcher(tracked_pages=0), dram) == layout.SCHEME_PY
    # Configs the spec runs and the C cannot hold (the specs reject the
    # rest at construction: tests/test_spp.py, tests/test_dspatch.py).
    cfg = SppConfig(ghr_entries=0)
    assert _scheme_kind(SPP(cfg), dram) == layout.SCHEME_PY
    assert _scheme_kind(ESPP(dram, cfg), dram) == layout.SCHEME_PY
    pf = DSPatch(dram, DSPatchConfig(pc_signature_bits=64))
    assert _scheme_kind(pf, dram) == layout.SCHEME_PY, "pc_signature_bits=64"
    for bits in (1, 63):
        pf = DSPatch(dram, DSPatchConfig(pc_signature_bits=bits))
        assert _scheme_kind(pf, dram) == (DP,), f"pc_signature_bits={bits}"
    assert _scheme_kind(SPP(SppConfig(st_entries=1, delta_slots=1)), dram) == (SPP_,)


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
    # Composite wrappers: twinned component lists (merge dedup in C) and
    # a pair with a component without a twin (Python crossing).
    ("spp+dspatch", "cloud.memcached", 2400, ST_DRAM),
    ("spp+dspatch", "hpc.npb-cg", 2400, MP_DRAM),
    ("spp+bop", "ispec06.mcf", 2000, ST_DRAM),
    ("spp+dspatch-64b", "ispec06.mcf", 2000, ST_DRAM),
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
        return _st_result(cfg, trace)

    for warmup_frac in (0.0, 0.25):
        label = f"train/{scheme}/{workload}/{warmup_frac}"
        _assert_same(run(warmup_frac, "object"), run(warmup_frac, "compiled"), label)


@needs_compiled
def test_batched_crossing_parity_non_compiled_scheme():
    """A scheme without a C twin crosses into Python on every training
    access; results stay bit-identical to the object model."""
    _assert_crosses("ampm")
    trace = build_trace("server.tpcc-1", 2400)
    base = System(_config("ampm", _LLC_GEOMETRIES[0], 0.1, "object")).run(trace).to_dict()
    got = System(_config("ampm", _LLC_GEOMETRIES[0], 0.1, "compiled")).run(trace).to_dict()
    _assert_same(base, got, "batched/ampm")


# ---------------------------------------------------------------------------
# The whole machine in flat form.  A compiled run's state only ever exists
# as flat arrays, so the object run's end state is packed into the same
# form (the from-objects pack, which tests/test_kernel_fresh_state.py pins
# to the config-built layout) and the two are compared as views.  A view
# only normalizes where entries sit; it leaves out transient slots, the
# scratch buffers and the pollution logs (compared through the results).

#: Slots that hold no machine state: buffer lengths and capacities, ring
#: heads and stamp clocks.
_TRANSIENT = frozenset(
    (
        "win_head", "win_cap", "cand_len", "cand_cap",
        "bp_pend_head", "bp_pend_cap", "sm_clock", "st_clock",
        *(f"{log}_{n}" for log in ("pl_dem", "pl_fill", "pl_vic") for n in ("len", "cap")),
    )
)
#: Arrays a view leaves out: the scratch buffers and the logs.
_SCRATCH = frozenset(("cand_line", "cand_lp", "pf_buf", "pl_dem", "pl_fill", "pl_vic"))
#: The arrays of the shared LLC/DRAM domain besides the LLC.
_SHARED = ("bank_open", "bank_nextact", "bank_rowready", "ch_busfree", "ch_demandfree")
_MSHRS = ("mshr_l1", "mshr_l2", "mshr_llc")
_CACHE = ("touch", "line", "pref", "used", "ready")
#: Arrays a view reads through its normalized entries only.
_FOLDED = frozenset(
    (
        "ci64", "cf64", "si64", "sf64", "win_idx", "win_ret", "infl_line", "infl_ready",
        *_MSHRS, *_SHARED, *(f"{level}_{f}" for level in ("l1", "l2", "llc") for f in (*_CACHE, "valid")),
    )
)
#: Tables read up to a length slot, in entries of the given width.
_CUT = {
    **dict.fromkeys(("sp_ghr_sig", "sp_ghr_conf", "sp_ghr_loff", "sp_ghr_delta"), ("sp_ghr_len", 1)),
    **dict.fromkeys(("dp_pb_page", "dp_pb_pattern"), ("dp_pb_len", 1)),
    **dict.fromkeys(("dp_pb_trig_sig", "dp_pb_trig_off"), ("dp_pb_len", 2)),
    "bp_active": ("bp_active_len", 1),
}
#: Stamped tables and their record widths (SMS's PHT is one per set).
_STAMPED = {"sm_at": layout.SM_REC, "sm_ft": layout.SM_REC, "st_tab": layout.ST_REC}


def _ring(arrays, head, n, cap):
    """Entries ``head``.. of a power-of-two ring of ``cap`` rows, in
    logical order."""
    order = (head + np.arange(n)) & (cap - 1)
    return list(zip(*(arr[order].tolist() for arr in arrays)))


def _stamped(rows):
    """A stamped table's live records (stamp not 0), in stamp order,
    without their stamps."""
    return [row[:-1] for row in sorted(rows.tolist(), key=lambda row: row[-1]) if row[-1]]


def _resident(arrays, level, ways):
    """A cache level's resident lines as (set, touch, line, pref, used,
    ready), set by set in touch (recency) order."""
    occupied = np.flatnonzero(arrays[level + "_valid"])
    columns = [occupied // ways, *(arrays[f"{level}_{f}"][occupied] for f in _CACHE)]
    return sorted(zip(*(column.tolist() for column in columns)))


def _table(name, arr, slots):
    """One table of a listed twin, normalized where its entries sit."""
    if name in _CUT:
        length, width = _CUT[name]
        return arr[: width * slots[length]].tolist()
    if name in _STAMPED:
        return _stamped(arr.reshape(-1, _STAMPED[name]))
    if name == "sm_pht":
        return [_stamped(rows) for rows in arr.reshape(slots["sm_pht_sets"], -1, layout.SM_PHT_REC)]
    if name == "bp_pend":
        pairs = arr.reshape(-1, 2).T
        return _ring(pairs, slots["bp_pend_head"], slots["bp_pend_len"], slots["bp_pend_cap"])
    return arr.tolist()


def _machine_view(states):
    """The whole machine of a run, as ``{key: plain value}``: every
    core's :class:`~repro.kernel.state.KernelState` and the
    :class:`~repro.kernel.state.SharedState` they share.

    Every slot but the transient ones, and every array but the scratch
    buffers and logs, normalized only where entries sit: resident lines
    per cache set in touch order; MSHR heaps and in-flight pairs sorted;
    the ROB window and BOP's pending ring in logical order; stamped SMS
    and streamer tables in stamp order without stamps; length-bounded
    tables cut at their length.  Tables of twins a core does not list
    are its 1-entry dummies.
    """
    view = {}
    for core, state in enumerate(states):
        arrays = state.array_map()
        slots = dict(zip(layout.CI64_NAMES, arrays["ci64"].tolist()))
        slots.update(zip(layout.CF64_NAMES, arrays["cf64"].tolist()))
        live = {table.name for kind in state.scheme_kind for table in layout.SCHEME_FAMILY[kind].arrays}
        n = slots["inflight_len"]
        own = {
            **{name: value for name, value in slots.items() if name not in _TRANSIENT},
            "scheme": state.scheme_kind,
            "l1": _resident(arrays, "l1", slots["l1_ways"]),
            "l2": _resident(arrays, "l2", slots["l2_ways"]),
            "rob": _ring(
                (arrays["win_idx"], arrays["win_ret"]),
                slots["win_head"], slots["win_len"], slots["win_cap"],
            ),
            "inflight": sorted(zip(arrays["infl_line"][:n].tolist(), arrays["infl_ready"][:n].tolist())),
            **{mshr: sorted(arrays[mshr][: slots[mshr + "_len"]].tolist()) for mshr in _MSHRS},
            **{name: _table(name, arrays[name], slots) for name in live},
            **{
                name: arrays[name].tolist()
                for name in layout.PTR_NAMES
                if name not in _FOLDED | _SCRATCH | live
            },
        }
        shared = {
            **dict(zip(layout.SI64_NAMES, arrays["si64"].tolist())),
            **dict(zip(layout.SF64_NAMES, arrays["sf64"].tolist())),
            "llc": _resident(arrays, "llc", slots["llc_ways"]),
            **{name: arrays[name].tolist() for name in _SHARED},
        }
        view.update((f"core{core}.{key}", value) for key, value in own.items())
        view.update((f"shared.{key}", value) for key, value in shared.items())
    return view


def _assert_same_machine(want, have, label):
    """Two machine views agree key for key; a failure names the keys."""
    assert have.keys() == want.keys(), f"{label}: views of different machines"
    diff = [key for key in want if have[key] != want[key]]
    assert not diff, f"{label}: the end state diverges at {diff}"


def _pack_end_state(executions, traces, llc, dram, record_pollution=False):
    """The flat form of an object run's end state: its LLC and DRAM and
    each core's execution, hierarchy and schemes, by the from-objects
    pack."""
    from repro.kernel.state import KernelState, SharedState

    shared = SharedState(llc, dram)
    return [
        KernelState(ex, trace, shared, record_pollution) for ex, trace in zip(executions, traces)
    ]


def _end_state_run(monkeypatch, cfg, traces, build=None):
    """One ``System``/``MultiCoreSystem`` run of ``cfg`` on ``cfg.kernel``:
    its per-core results, each with the ``repr`` of its pollution logs, and the machine's view at the end of the run
    (:func:`_machine_view`).

    A compiled run takes the production path, laid out from the config;
    its cores are recorded as the run builds them, and their live flat
    state, the shared domain's included, is the view.  An object run's
    hierarchies and executions are recorded likewise, and its end state
    is packed into flat form.  ``build``, when given, replaces the
    registry builder, so any config can run.
    """
    import repro.cpu.system as system_mod
    from repro.kernel import execution as kexec

    built = {"scheme": [], "dram": [], "hierarchy": [], "execution": [], "kex": []}

    def recording(kind, real):
        def make(*args):
            built[kind].append(build(args[1]) if kind == "scheme" and build else real(*args))
            return built[kind][-1]

        return make

    class RecordingExecution(kexec.KernelExecution):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built["kex"].append(self)

    def run():
        if len(traces) == 1:
            return [System(cfg).run(traces[0])]
        return MultiCoreSystem(cfg, num_cores=len(traces)).run(traces).per_core

    with monkeypatch.context() as patch:
        for name, kind in (
            ("build_prefetcher", "scheme"),
            ("DramModel", "dram"),
            ("_make_hierarchy", "hierarchy"),
            ("CoreExecution", "execution"),
        ):
            patch.setattr(system_mod, name, recording(kind, getattr(system_mod, name)))
        patch.setattr(kexec, "KernelExecution", RecordingExecution)
        results = run()
    (dram,) = built["dram"]
    assert len(built["scheme"]) == len(traces)
    if cfg.kernel == "compiled":
        assert not built["hierarchy"] and len(built["kex"]) == len(traces)
        states = [kex.state for kex in built["kex"]]
    else:
        llc = built["hierarchy"][0].llc
        states = _pack_end_state(
            built["execution"], traces, llc, dram, cfg.record_pollution_victims
        )
    per_core = [
        dict(r.to_dict(), logs=repr((r.demand_log, r.prefetch_fill_log, r.pollution_events)))
        for r in results
    ]
    return per_core, _machine_view(states)


def _diverging(state, view):
    """The keys where ``state``'s view differs from ``view``."""
    now = _machine_view([state])
    return [key for key in view if now[key] != view[key]]


def test_machine_view_sees_state_not_placement():
    """The view ignores where the flat form places an entry (a line's
    way, a ring's head, a stamp's value, a heap's order, transient
    slots) and sees state that no result reads: an LLC line's used bit,
    an MSHR entry, a DRAM bank's open row."""
    from repro.cpu.core import CoreExecution
    from repro.memory.dram import DramModel
    from repro.memory.hierarchy import MemoryHierarchy
    from repro.prefetchers.bop import BOP
    from repro.prefetchers.composite import CompositePrefetcher
    from repro.prefetchers.sms import SMS
    from repro.prefetchers.stride import PcStridePrefetcher

    trace = build_trace("cloud.memcached", 1500)
    cfg = _config("custom", _LLC_GEOMETRIES[0], 0.0, "object")
    dram = DramModel(cfg.dram)
    hierarchy = MemoryHierarchy(
        config=cfg.hierarchy,
        dram=dram,
        l1_prefetcher=PcStridePrefetcher(),
        l2_prefetcher=CompositePrefetcher([BOP(), SMS()]),
    )
    execution = CoreExecution(cfg.core, trace, hierarchy)
    execution.run_ops()
    (state,) = _pack_end_state([execution], [trace], hierarchy.llc, dram)
    view = _machine_view([state])
    ci, llc = state.ci64, state.shared.llc
    ways = int(ci[layout.CI64["llc_ways"]])
    full = next(s for s in range(len(llc["valid"]) // ways) if llc["valid"][s * ways : (s + 1) * ways].all())
    a, b = full * ways, full * ways + 1

    # Placement: swap two ways, rotate both rings, restamp and reorder
    # SMS's AT, reverse a heap, touch a transient slot.
    for column in llc.values():
        column[[a, b]] = column[[b, a]]
    for ring, head, n, cap in (
        ((state.win_idx, state.win_ret), "win_head", "win_len", "win_cap"),
        ((state.bp_pend.reshape(-1, 2),), "bp_pend_head", "bp_pend_len", "bp_pend_cap"),
    ):
        n, cap = int(ci[layout.CI64[n]]), int(ci[layout.CI64[cap]])
        assert 0 < n < cap
        for arr in ring:
            arr[(3 + np.arange(n)) & (cap - 1)] = arr[:n].copy()
        ci[layout.CI64[head]] = 3
    at = state.sm_at.reshape(-1, layout.SM_REC)
    assert at[:, -1].all()
    at[:, -1] += 1000
    at[:] = at[::-1].copy()
    n = int(ci[layout.CI64["mshr_l2_len"]])
    assert n > 1
    state.mshr_l2[:n] = state.mshr_l2[:n][::-1].copy()
    ci[layout.CI64["sm_clock"]] += 7
    assert not _diverging(state, view)

    # State: each change shows under its own key.
    llc["used"][a] ^= 1
    assert _diverging(state, view) == ["shared.llc"]
    llc["used"][a] ^= 1
    n = int(ci[layout.CI64["mshr_llc_len"]])
    ci[layout.CI64["mshr_llc_len"]] = n + 1
    assert _diverging(state, view) == ["core0.mshr_llc_len", "core0.mshr_llc"]
    ci[layout.CI64["mshr_llc_len"]] = n
    state.shared.bank_open[0] += 1
    assert _diverging(state, view) == ["shared.bank_open"]


@needs_compiled
@pytest.mark.parametrize("cores", (1, 4), ids=("st", "mp"))
@pytest.mark.parametrize("warmup_frac", (0.0, 0.25))
@pytest.mark.parametrize(
    "scheme", ("dspatch", "spp+dspatch", "sms", "bop", "streamer", "spp", "spp+bop+dspatch")
)
def test_end_of_run_state_is_identical(scheme, warmup_frac, cores, monkeypatch):
    """Object and compiled runs end in the same machine, whether training
    ran in generated C or in Python: every cache line with its recency
    and prefetch bits, the MSHRs, the in-flight prefetches, the ROB
    window, the stride table, the DRAM banks and monitor, every counter,
    and each scheme component's tables in their order (DSPatch's page
    buffer, SMS's AT, FT and PHT sets, the streamer's page table, ...),
    compared in flat form (see :func:`_end_state_run`)."""
    if cores == 1:
        traces = [build_trace("cloud.memcached", 2000)]
    else:
        traces = [build_trace(name, length) for name, length in _mp_draw(scheme, warmup_frac)]
    _assert_end_state_parity(monkeypatch, scheme, warmup_frac, traces)


def _assert_end_state_parity(
    monkeypatch, scheme, warmup_frac, traces, build=None, llc=None, l2=None, record=False
):
    """Object and compiled runs of ``traces`` (the ST machine for one,
    four cores under ``MP_DRAM`` for more) agree on every result and on
    the whole machine at the end of the run (:func:`_machine_view`).
    ``llc``, when given, is the ``(bytes, ways)`` of the LLC, and
    ``l2``, the L2's; with ``record``, both runs record the pollution
    logs, which must agree too."""
    dram = ST_DRAM if len(traces) == 1 else MP_DRAM

    def run(kernel):
        cfg = _config(scheme, llc or _LLC_GEOMETRIES[0], warmup_frac, kernel, dram=dram, l2=l2)
        cfg = dataclasses.replace(cfg, record_pollution_victims=record)
        return _end_state_run(monkeypatch, cfg, traces, build)

    base_results, base_view = run("object")
    got_results, got_view = run("compiled")
    for core, (want, have) in enumerate(zip(base_results, got_results)):
        _assert_same(want, have, f"end/{scheme}/core{core}")
    _assert_same_machine(base_view, got_view, f"end/{scheme}")


def _assert_twins(scheme):
    """``scheme`` trains in C: it has a twin for every component."""
    from repro.kernel import layout
    from repro.kernel.state import _scheme_kind
    from repro.memory.dram import DramModel
    from repro.prefetchers.registry import build_prefetcher

    dram = DramModel(ST_DRAM)
    assert _scheme_kind(build_prefetcher(scheme, dram.monitor), dram) != layout.SCHEME_PY


@needs_compiled
@pytest.mark.parametrize("warmup_frac", (0.0, 0.25))
@pytest.mark.parametrize(
    "scheme,cores",
    # The registry entries that twin as component lists or through the
    # SPP/DSPatch config slots (spp+bop+dspatch runs in the end-state
    # test above), the DSPatch ablations among them, plus 4-core mixes of
    # the Figure 15 composite and of a Figure 19 one.
    [
        ("spp+bop", 1),
        ("spp+ebop", 1),
        ("spp+sms-256", 1),
        ("dspatch-noreset", 1),
        ("dspatch-spt512", 1),
        ("dspatch-spt128", 1),
        ("dspatch-spt64", 1),
        ("dspatch-pb128", 1),
        ("dspatch-pb32", 1),
        ("alwayscovp", 1),
        ("modcovp", 1),
        ("dspatch-noanchor", 1),
        ("dspatch-1trigger", 1),
        ("spp+alwayscovp", 1),
        ("spp+modcovp", 1),
        ("spp+ebop", 4),
        ("spp+modcovp", 4),
    ],
)
def test_slot_and_composite_twins_match_the_object_model(scheme, cores, warmup_frac, monkeypatch):
    """Results and the whole machine at the end of the run, each
    component's tables included, are bit-identical to the object model
    for the schemes these twins newly cover."""
    _assert_twins(scheme)
    if cores == 1:
        traces = [build_trace("hpc.npb-cg", 2400)]
    else:
        traces = [build_trace(name, length) for name, length in _mp_draw(scheme, warmup_frac)]
    _assert_end_state_parity(monkeypatch, scheme, warmup_frac, traces)


def _run_capturing_machine(monkeypatch, scheme, trace, kernel, dram=ST_DRAM, build=None):
    """``System.run`` result plus the machine's view at the end of the
    run (see :func:`_end_state_run`)."""
    cfg = _config(scheme, _LLC_GEOMETRIES[1], 0.0, kernel, dram=dram)
    (result,), view = _end_state_run(monkeypatch, cfg, [trace], build)
    return result, view


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
    stable sort and ends in exactly the learned state."""
    from repro.prefetchers.bop import BOP

    trace = build_trace(workload, length)
    endings = []
    rankings = []
    real_finish = BOP._finish_phase

    def spying_finish(self):
        endings.append("max_round" if self._round >= self.config.max_round else "max_score")
        real_finish(self)
        rankings.append(list(self.active_offsets))

    monkeypatch.setattr(BOP, "_finish_phase", spying_finish)
    base, base_view = _run_capturing_machine(monkeypatch, "bop", trace, "object")
    assert ending in endings
    got, got_view = _run_capturing_machine(monkeypatch, "bop", trace, "compiled")
    _assert_same(base, got, f"bop-phases/{workload}")
    _assert_same_machine(base_view, got_view, f"bop-phases/{workload}")
    # The spy sees the object run only; the twin ended phases too, since
    # it holds the last phase's ranking, not the initial offset 1.
    assert rankings[-1] != [1]
    assert got_view["core0.bp_active"] == rankings[-1]


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
    base, base_view = _run_capturing_machine(
        monkeypatch, "custom", trace, "object", dram=MP_DRAM, build=build
    )
    got, got_view = _run_capturing_machine(
        monkeypatch, "custom", trace, "compiled", dram=MP_DRAM, build=build
    )
    label = f"slots/{build.__name__}/{workload}"
    _assert_same(base, got, label)
    _assert_same_machine(base_view, got_view, label)


@needs_compiled
@pytest.mark.parametrize("scheme", ("bop", "ebop"))
def test_bop_pending_ring_grows_never_truncates(scheme, monkeypatch):
    """BOP's pending-fill FIFO is unbounded in the spec.  Started at the
    smallest ring, the twin grows it between ops (the grow callback) many
    times; results and the queue at the end of the run stay exact."""
    import repro.kernel.state as state_mod

    trace = build_trace("hpc.npb-cg", 2600)
    base, base_view = _run_capturing_machine(monkeypatch, scheme, trace, "object", dram=MP_DRAM)
    grows = []
    real_grow = state_mod.KernelState.grow_pending_ring

    def counting_grow(self):
        grows.append(1)
        real_grow(self)

    monkeypatch.setattr(state_mod, "_ring_cap", state_mod._next_pow2)
    monkeypatch.setattr(state_mod.KernelState, "grow_pending_ring", counting_grow)
    got, got_view = _run_capturing_machine(monkeypatch, scheme, trace, "compiled", dram=MP_DRAM)
    assert len(grows) >= 3
    _assert_same(base, got, f"ring/{scheme}")
    _assert_same_machine(base_view, got_view, f"ring/{scheme}")


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
    throughout, results and the whole machine at the end included."""
    from repro.cpu.core import CoreExecution
    from repro.cpu.system import _result_from, _run_result
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
        if switch_at == len(trace):
            result = _result_from(execution, hierarchy, dram)
            return result.to_dict(), _machine_view(
                _pack_end_state([execution], [trace], hierarchy.llc, dram)
            )
        domain = KernelDomain(hierarchy.llc, dram)
        kex = KernelExecution(execution, trace, domain)
        domain.interleave([kex])
        result = _run_result(*kex.counters(), domain.dram_counters())
        return result.to_dict(), _machine_view([kex.state])

    base_result, base_view = run(len(trace))
    got_result, got_view = run(switch_at)
    _assert_same(base_result, got_result, f"mid-run/{scheme}")
    _assert_same_machine(base_view, got_view, f"mid-run/{scheme}")


@needs_compiled
@pytest.mark.parametrize(
    "scheme,delivered",
    # ampm and streamer inherit Prefetcher's no-op note hooks, and so
    # does every component of spp+ampm; the fdp: throttle reads its
    # notes, alone or as a composite's component.
    [
        ("ampm", False),
        ("streamer", False),
        ("spp+ampm", False),
        ("spp+fdp:ampm", True),
        ("fdp:ampm", True),
    ],
)
def test_notes_queue_only_for_schemes_that_read_them(scheme, delivered, monkeypatch):
    """A crossing scheme whose note hooks are the base no-ops, or a
    composite whose components' all are, gets no usefulness note
    callbacks; results stay bit-identical."""
    from repro.kernel.execution import KernelExecution

    notes = []
    real_note = KernelExecution._note

    def counting_note(self, *args):
        notes.append(1)
        real_note(self, *args)

    trace = build_trace("server.tpcc-1", 2400)
    base = System(_config(scheme, _LLC_GEOMETRIES[0], 0.1, "object")).run(trace).to_dict()
    monkeypatch.setattr(KernelExecution, "_note", counting_note)
    got = System(_config(scheme, _LLC_GEOMETRIES[0], 0.1, "compiled")).run(trace).to_dict()
    _assert_same(base, got, f"notes/{scheme}")
    assert bool(notes) == delivered


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
    grow at many grow callbacks between ops; every entry survives every
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
