"""Parity tests for the observed hierarchy.

Two acceptance bars from the observability design:

- **tracing must not perturb results** — a run with both trace families
  on produces a ``RunResult`` equal field-for-field to the untraced run
  (the observed subclass replays the parent's own simulation code);
- **the exact path agrees with the cheap path** — quality counters
  folded from the event stream equal the aggregate counters the
  ``RunResult`` carries, per scheme per workload.
"""

import dataclasses

import pytest

from repro.cpu.system import System, SystemConfig
from repro.engine import TraceSpec, default_session
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.observed import ObservedHierarchy
from repro.metrics.quality import (
    QualityProfile,
    counters_from_events,
    counters_from_result,
)
from repro.observe.sinks import CollectingSink

# Small but non-trivial grid: a pattern-heavy scheme, the paper's main
# scheme, a composite, and the throttled wrapper all exercise different
# emit paths (drops, LLC promotions, scheme events).
GRID_SCHEMES = ("none", "streamer", "spp", "dspatch", "spp+dspatch", "fdp:streamer")
GRID_WORKLOADS = ("ispec06.mcf", "hpc.linpack")
LENGTH = 1500


def _trace(workload):
    return default_session().trace(TraceSpec(workload, LENGTH))


def _run(workload, scheme, *, traced, sink=None, **cfg_kwargs):
    cfg = SystemConfig.single_thread(
        scheme,
        llc_bytes=256 * 1024,  # constrained LLC so evictions actually happen
        trace_prefetch=traced,
        trace_cache=traced,
        **cfg_kwargs,
    )
    return System(cfg, sink=sink).run(_trace(workload))


class TestConstruction:
    def test_tracing_off_builds_plain_hierarchy(self):
        from repro.cpu.system import _make_hierarchy

        cfg = SystemConfig.single_thread("none")
        h = _make_hierarchy(cfg, None, None, None, None, sink=None)
        assert type(h) is MemoryHierarchy

    def test_tracing_on_builds_observed_hierarchy(self):
        from repro.cpu.system import _make_hierarchy

        cfg = SystemConfig.single_thread("none", trace_prefetch=True)
        sink = CollectingSink()
        h = _make_hierarchy(cfg, None, None, None, None, sink=sink)
        assert type(h) is ObservedHierarchy

    def test_pollution_recording_builds_observed_hierarchy(self):
        """The object path derives the logs from the event stream (a
        compiled run builds no hierarchy: the kernel records the logs)."""
        from repro.cpu.system import _make_hierarchy

        cfg = SystemConfig.single_thread("none", record_pollution_victims=True)
        h = _make_hierarchy(cfg, None, None, None, None, sink=None)
        assert type(h) is ObservedHierarchy

    def test_trace_flags_not_in_run_fingerprints(self):
        from repro.engine import RunSpec

        spec = RunSpec("ispec06.mcf", "dspatch", 500)
        fields = [f.name for f in dataclasses.fields(spec)]
        assert "trace_prefetch" not in fields
        assert "trace_cache" not in fields


@pytest.mark.parametrize("workload", GRID_WORKLOADS)
@pytest.mark.parametrize("scheme", GRID_SCHEMES)
class TestTracedRunParity:
    def test_traced_result_identical_and_events_agree(self, scheme, workload):
        plain = _run(workload, scheme, traced=False)
        sink = CollectingSink()
        traced = _run(workload, scheme, traced=True, sink=sink)

        # Bit-identical RunResult, every field.
        assert dataclasses.asdict(traced) == dataclasses.asdict(plain)

        # Exact path == cheap path, counter for counter.
        from_events = counters_from_events(sink.events)
        from_result = counters_from_result(traced)
        assert from_events == from_result

        # And therefore identical profiles through the scorer.
        ep = QualityProfile.from_events(sink.events, scheme, workload)
        cp = QualityProfile.from_result(traced, scheme, workload)
        assert ep == cp
        assert cp.valid, cp.issues


class TestEventStreamShape:
    def test_reset_markers_precede_measured_region(self):
        sink = CollectingSink()
        _run("ispec06.mcf", "streamer", traced=True, sink=sink)
        kinds = [e[0] for e in sink.events]
        assert "reset" in kinds
        last_reset = len(kinds) - 1 - kinds[::-1].index("reset")
        # Events exist on both sides of the warmup boundary.
        assert last_reset > 0
        assert last_reset < len(kinds) - 1

    def test_every_useful_late_flag_has_late_companion(self):
        sink = CollectingSink()
        _run("ispec06.mcf", "dspatch", traced=True, sink=sink)
        useful_late = sum(1 for e in sink.events if e[0] == "useful" and e[4])
        late = sum(1 for e in sink.events if e[0] == "late")
        assert useful_late == late
        assert late > 0  # the workload actually exercises the late path

    def test_pollution_views_match_collector_semantics(self):
        sink = CollectingSink()
        res = _run(
            "ispec06.mcf",
            "streamer",
            traced=True,
            sink=sink,
            record_pollution_victims=True,
        )
        from repro.observe.sinks import PollutionCollector

        pc = PollutionCollector()
        for event in sink.events:
            pc.emit(event)
        assert res.demand_log == pc.demands
        assert res.prefetch_fill_log == pc.fills
        assert [(e.ordinal, e.victim_line) for e in res.pollution_events] == pc.victims
        assert res.pollution_events  # constrained LLC: victims exist

    def test_pollution_recording_does_not_change_metrics(self):
        plain = _run("ispec06.mcf", "streamer", traced=False)
        recorded = _run(
            "ispec06.mcf", "streamer", traced=False, record_pollution_victims=True
        )
        plain_d = dataclasses.asdict(plain)
        recorded_d = dataclasses.asdict(recorded)
        for key in ("pollution_events", "demand_log", "prefetch_fill_log"):
            plain_d.pop(key)
            recorded_d.pop(key)
        assert plain_d == recorded_d

    def test_single_family_tracing(self):
        cache_only = CollectingSink()
        cfg = SystemConfig.single_thread(
            "dspatch", llc_bytes=256 * 1024, trace_cache=True
        )
        System(cfg, sink=cache_only).run(_trace("ispec06.mcf"))
        fams = {e[0] for e in cache_only.events}
        assert fams <= {"hit", "miss", "reset"}

        pf_only = CollectingSink()
        cfg = SystemConfig.single_thread(
            "dspatch", llc_bytes=256 * 1024, trace_prefetch=True
        )
        System(cfg, sink=pf_only).run(_trace("ispec06.mcf"))
        fams = {e[0] for e in pf_only.events}
        assert "hit" not in fams and "miss" not in fams
        assert "issue" in fams
        assert "scheme" in fams  # dspatch emits select events
