"""Differential fuzzing of the compiled twin over the gate's domain.

Every twin reads its config from flat-state slots, and a twinned scheme
is the ordered list of its components' twins, so the domain the fixed
parity grids sample is much larger than the registry.  Here hypothesis
draws schemes from it: 1 to 5 components in any arbitration order, one
per table family (SPP/eSPP, DSPatch, BOP/eBOP, SMS, the streamer), each
with a small random config (SMS's region and AT/FT sizes, BOP's RR
size, bad score and fill delay, and DSPatch's ablation switches
included); the L2 and LLC geometries; a
warmup of 0 or 0.25; one core or a 4-core mix; catalog workloads of 300
to 1,200 ops.  Each drawn case runs on the object model (the spec) and
the compiled kernel, which must agree on every result and prefetch
counter and on the whole machine at the end of the run, compared in
flat form (``_machine_view`` in ``tests/test_kernel_parity.py``).

A second draw fuzzes the callbacks through which a compiled run calls
Python: a drawn twinned scheme composed with one component that has no
C twin (at a drawn arbitration position), or wrapped in ``fdp:``'s
throttle, trains in Python and takes its usefulness notes there, with
the pollution logs recorded or not; the logs must agree too.  One fixed
row returns more than ``CAND_CAP0`` candidates while recording, which
grows the candidate buffers and the logs inside the train callback.

The examples are derandomized (a fixed sequence, no example database),
so the test is deterministic.  A plain run draws 30 of them, to keep it
cheap; the Hypothesis profile ``twin-fuzz`` (``tests/conftest.py``,
chosen with ``--hypothesis-profile``) sets a larger budget.  A failure
shrinks to a minimal scheme and trace.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from test_kernel_parity import _WORKLOADS, _assert_end_state_parity, needs_compiled

from repro.constants import LINE_SHIFT
from repro.core.dspatch import SELECTIONS, DSPatch, DSPatchConfig
from repro.kernel.layout import CAND_CAP0, SCHEME_PY
from repro.kernel.state import _scheme_kind
from repro.memory.dram import DramModel, ST_DRAM
from repro.prefetchers.base import PrefetchCandidate, Prefetcher
from repro.prefetchers.bop import BOP, EBOP, BopConfig
from repro.prefetchers.composite import CompositePrefetcher
from repro.prefetchers.registry import build_prefetcher
from repro.prefetchers.sms import SMS, SmsConfig
from repro.prefetchers.spp import ESPP, SPP, SppConfig
from repro.prefetchers.streamer import StreamPrefetcher
from repro.prefetchers.throttle import FeedbackThrottle
from repro.workloads.catalog import build_trace


def _pow2(*exponents):
    return st.sampled_from([1 << e for e in exponents])


@st.composite
def _spp(draw):
    cfg = SppConfig(
        st_entries=draw(_pow2(0, 2, 4, 8)),
        pt_entries=draw(_pow2(0, 3, 6, 9)),
        ghr_entries=draw(st.integers(1, 8)),
        delta_slots=draw(st.integers(1, 6)),
        counter_max=draw(st.sampled_from([3, 7, 15])),
        prefetch_threshold=draw(st.sampled_from([0.05, 0.125, 0.25, 0.5])),
        lookahead_threshold=draw(st.sampled_from([0.05, 0.25, 0.5])),
        relaxed_threshold=draw(st.sampled_from([0.0625, 0.125, 0.3])),
        max_lookahead_depth=draw(st.sampled_from([1, 3, 64])),
        max_candidates_per_train=draw(st.sampled_from([1, 6, 24])),
        filter_entries=draw(st.sampled_from([1, 37, 1024])),
    )
    if draw(st.booleans()):
        return lambda bw: ESPP(bw, cfg)
    return lambda bw: SPP(cfg)


@st.composite
def _dspatch(draw):
    cfg = DSPatchConfig(
        spt_entries=draw(_pow2(0, 2, 6, 8, 9)),
        pb_entries=draw(st.sampled_from([1, 2, 8, 64, 128])),
        max_candidates_per_trigger=draw(st.sampled_from([1, 5, 62])),
        pc_signature_bits=draw(st.sampled_from([1, 3, 8, 12, 63])),
        covp_reset=draw(st.booleans()),
        selection=draw(st.sampled_from(SELECTIONS)),
        anchored=draw(st.booleans()),
        segment1_trigger=draw(st.booleans()),
    )
    return lambda bw: DSPatch(bw, cfg)


@st.composite
def _bop(draw):
    cfg = BopConfig(
        rr_entries=draw(_pow2(0, 2, 6, 8, 10)),
        degree=draw(st.integers(1, 6)),
        offsets=tuple(draw(st.lists(st.integers(-70, 70), min_size=1, max_size=12, unique=True))),
        max_round=draw(st.sampled_from([2, 5, 100])),
        max_score=draw(st.sampled_from([3, 31])),
        bad_score=draw(st.integers(-1, 4)),
        fill_delay_cycles=draw(st.sampled_from([0, 1, 120, 300, 2000])),
    )
    if draw(st.booleans()):
        return lambda bw: EBOP(bw, cfg)
    return lambda bw: BOP(cfg)


@st.composite
def _sms(draw):
    entries = draw(_pow2(2, 4, 6, 8, 10))
    ways = draw(st.sampled_from([w for w in (1, 4, 16) if w <= entries]))
    cfg = SmsConfig(
        region_bytes=draw(_pow2(6, 7, 9, 11, 12)),
        at_entries=draw(st.sampled_from([1, 2, 8, 64])),
        ft_entries=draw(st.sampled_from([1, 3, 32])),
        pht_entries=entries,
        pht_ways=ways,
    )
    return lambda bw: SMS(cfg)


@st.composite
def _streamer(draw):
    tracked, degree = draw(st.integers(1, 16)), draw(st.integers(1, 8))
    return lambda bw: StreamPrefetcher(tracked_pages=tracked, degree=degree)


#: One config strategy per table family: a twinned scheme holds at most
#: one component of each.
_FAMILIES = (_spp, _dspatch, _bop, _sms, _streamer)


@st.composite
def _twinned_scheme(draw):
    """A builder of fresh scheme instances over a bandwidth source: one
    component, or a composite of 2 to 5 in a drawn arbitration order."""
    families = draw(st.permutations(_FAMILIES))[: draw(st.integers(1, len(_FAMILIES)))]
    parts = [draw(family()) for family in families]
    if len(parts) == 1:
        return parts[0]
    return lambda bw: CompositePrefetcher([part(bw) for part in parts])


def _geometry(sizes_kb, ways):
    """A cache's ``(size_bytes, ways)``: any of these sizes and ways gives
    a power-of-two set count."""
    return st.tuples(st.sampled_from([kb << 10 for kb in sizes_kb]), st.sampled_from(ways))


@needs_compiled
@settings(
    # 30 examples, unless the twin-fuzz profile (tests/conftest.py) sets
    # the budget.
    **({} if settings.get_current_profile_name() == "twin-fuzz" else {"max_examples": 30}),
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    build=_twinned_scheme(),
    warmup_frac=st.sampled_from([0.0, 0.25]),
    workloads=st.sampled_from(_WORKLOADS).map(lambda w: [w]) | st.lists(
        st.sampled_from(_WORKLOADS), min_size=4, max_size=4
    ),
    length=st.integers(300, 1200),
    llc=_geometry((64, 256, 1024, 2048), (1, 4, 16, 32)),
    l2=_geometry((16, 64, 256, 512), (1, 2, 8, 16)),
)
def test_twins_match_the_object_model(build, warmup_frac, workloads, length, llc, l2):
    dram = DramModel(ST_DRAM)
    scheme = build(dram.monitor)
    components = scheme.components if isinstance(scheme, CompositePrefetcher) else [scheme]
    assert len(_scheme_kind(scheme, dram)) == len(components), "the drawn scheme crosses"
    traces = [build_trace(name, length) for name in workloads]
    with pytest.MonkeyPatch.context() as patch:
        _assert_end_state_parity(patch, "custom", warmup_frac, traces, build, llc=llc, l2=l2)


#: Registry schemes without a C twin, composed one at a time with a
#: drawn twinned scheme.
_CROSSING = ("ampm", "nextline-4", "markov", "bingo", "vldp", "dspatch-64b")


@st.composite
def _crossing_scheme(draw):
    """A drawn twinned scheme that crosses: composed with one crossing
    component at a drawn arbitration position, or wrapped in ``fdp:``'s
    throttle."""
    twinned = draw(_twinned_scheme())
    name = draw(st.sampled_from(("fdp:", *_CROSSING)))
    if name == "fdp:":
        return lambda bw: FeedbackThrottle(twinned(bw))
    position = draw(st.integers(0, len(_FAMILIES)))

    def build(bw):
        scheme = twinned(bw)
        parts = list(scheme.components) if isinstance(scheme, CompositePrefetcher) else [scheme]
        parts.insert(position, build_prefetcher(name, bw))
        return CompositePrefetcher(parts)

    return build


class _Burst(Prefetcher):
    """A crossing component that returns ``CAND_CAP0 + 50`` candidates on
    every 97th training (fresh lines far from the access)."""

    def __init__(self):
        self.calls = 0

    def train(self, cycle, pc, addr, hit):
        self.calls += 1
        if self.calls % 97:
            return ()
        far = (addr >> LINE_SHIFT) + (1 << 24) + 4096 * self.calls
        return [PrefetchCandidate(far + i) for i in range(CAND_CAP0 + 50)]


@needs_compiled
@settings(
    **({} if settings.get_current_profile_name() == "twin-fuzz" else {"max_examples": 30}),
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    build=_crossing_scheme(),
    record=st.booleans(),
    warmup_frac=st.sampled_from([0.0, 0.25]),
    workloads=st.sampled_from(_WORKLOADS).map(lambda w: [w]) | st.lists(
        st.sampled_from(_WORKLOADS), min_size=4, max_size=4
    ),
    length=st.integers(300, 1200),
    llc=_geometry((64, 256, 1024, 2048), (1, 4, 16, 32)),
    l2=_geometry((16, 64, 256, 512), (1, 2, 8, 16)),
)
@example(
    build=lambda bw: CompositePrefetcher([SPP(), _Burst()]),
    record=True,
    warmup_frac=0.0,
    workloads=["ispec06.mcf"] * 4,
    length=1200,
    llc=(256 << 10, 16),
    l2=(64 << 10, 8),
)
def test_crossings_match_the_object_model(build, record, warmup_frac, workloads, length, llc, l2):
    dram = DramModel(ST_DRAM)
    assert _scheme_kind(build(dram.monitor), dram) == SCHEME_PY, "the drawn scheme twins"
    traces = [build_trace(name, length) for name in workloads]
    with pytest.MonkeyPatch.context() as patch:
        _assert_end_state_parity(
            patch, "custom", warmup_frac, traces, build, llc=llc, l2=l2, record=record
        )
