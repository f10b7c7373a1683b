"""The benchmark's three workloads, each a seeded plan of engine specs.

A plan is the list of ``RunSpec``/``MixSpec`` objects one cold pass
computes, plus the batch calls that compute them.  The batch calls are
the public helpers the figure drivers use (``api.run_grid`` per DRAM or
LLC point, ``api.warm_mix_grid`` for the mixes), so a pass takes the
same path through ``Session.run`` that ``repro report`` takes.

The seed picks the per-category workloads and draws the mixes; the
simulator itself receives only the resulting specs.
"""

import random

from repro.engine import MixSpec, RunSpec
from repro.engine.specs import MP_DRAM, MP_LLC_BYTES
from repro.experiments import api
from repro.memory.dram import BANDWIDTH_SWEEP
from repro.workloads.catalog import CATEGORIES, MEMORY_INTENSIVE, workloads_in_category
from repro.workloads.mixes import heterogeneous_mixes, homogeneous_mixes

#: Seeded workloads per category, as in the default ``repro report``
#: scale.  Three rather than one keep the host time of a pass nearly the
#: same from seed to seed: per-workload cost varies by up to 2.5x.
PER_CATEGORY = 3
#: Memory ops per single-core trace: half the report's default 16000, so
#: that a pass of 27 workloads stays near seven seconds.
ST_TRACE_LEN = 8000
#: Memory ops per core in a mix: the default ``repro report`` mix scale.
MP_TRACE_LEN = 6000
#: Trace length of the object-path pollution runs.  The object path is
#: about fifteen times slower per op than the compiled kernel, so a short
#: trace keeps this pass near the other two in host time (~6000 victims
#: are still classified per pass).
POLLUTION_TRACE_LEN = 2000

ST_SCHEMES = ("none", "bop", "sms", "spp", "dspatch", "spp+dspatch")
#: Only schemes with compiled training twins, so the mix pass spends its
#: host time in the scheduler, not in Python training crossings.
MP_SCHEMES = ("none", "spp", "spp+dspatch")
#: The lowest and highest points of the Figures 1/6/15 bandwidth sweep.
ST_DRAMS = (BANDWIDTH_SWEEP[0], BANDWIDTH_SWEEP[-1])
#: Figure 20's LLC sizes at the default scale (8MB/4MB/2MB scaled 8:1).
POLLUTION_LLC_BYTES = (1 << 20, 512 << 10, 256 << 10)
HETERO_MIXES = 6
HOMO_MIXES = 6


def _rng(name, seed):
    return random.Random(f"{name}:{seed}")


def pick_per_category(name, seed):
    """``PER_CATEGORY`` catalog workloads per category, drawn from ``seed``."""
    rng = _rng(name, seed)
    return [
        workload
        for category in CATEGORIES
        for workload in rng.sample(workloads_in_category(category), PER_CATEGORY)
    ]


def draw_mixes(seed):
    """Seeded heterogeneous draws plus homogeneous mixes of seeded picks."""
    hetero = heterogeneous_mixes(count=HETERO_MIXES, seed=seed)
    picks = _rng("mp-mix", seed).sample(list(MEMORY_INTENSIVE), HOMO_MIXES)
    return hetero + homogeneous_mixes(picks)


class Plan:
    """One workload's specs and the batch calls that compute them."""

    def __init__(self, specs, batches):
        self.specs = specs
        self._batches = batches

    def run(self, session):
        """Compute every spec cold; returns ``[(spec, result, error)]``.

        The batches run first, exactly as a figure driver issues them; the
        results are then read back through the session memo.  If a batch
        raises, every spec is retried alone so each failure is counted
        against the spec that caused it.
        """
        try:
            for batch in self._batches:
                batch(session)
        except Exception as exc:  # noqa: BLE001 - counted per spec below
            print(f"perfbench: batch raised {exc!r}; retrying spec by spec")
        outcomes = []
        for spec in self.specs:
            try:
                outcomes.append((spec, session.run(spec), None))
            except Exception as exc:  # noqa: BLE001 - a failed spec
                outcomes.append((spec, None, f"{type(exc).__name__}: {exc}"))
        return outcomes


def _st_grid(seed, scale):
    workloads = pick_per_category("st-grid", seed)
    length = max(1, ST_TRACE_LEN // scale)
    specs = [
        RunSpec(w, s, length, dram) for dram in ST_DRAMS for w in workloads for s in ST_SCHEMES
    ]
    batches = [
        lambda session, dram=dram: api.run_grid(session, workloads, ST_SCHEMES, length, dram)
        for dram in ST_DRAMS
    ]
    return Plan(specs, batches)


def _mp_mix(seed, scale):
    mixes = draw_mixes(seed)
    length = max(1, MP_TRACE_LEN // scale)
    alone = sorted({name for _, names in mixes for name in names})
    specs = [RunSpec(name, "none", length, MP_DRAM, MP_LLC_BYTES) for name in alone]
    specs += [
        MixSpec(mix_name, tuple(names), scheme, length, MP_DRAM)
        for mix_name, names in mixes
        for scheme in MP_SCHEMES
    ]
    batches = [lambda session: api.warm_mix_grid(session, mixes, MP_SCHEMES, length)]
    return Plan(specs, batches)


def _st_pollution(seed, scale):
    workloads = pick_per_category("st-pollution", seed)
    length = max(1, POLLUTION_TRACE_LEN // scale)
    specs = [
        RunSpec(w, "streamer", length, None, llc, True)
        for llc in POLLUTION_LLC_BYTES
        for w in workloads
    ]
    batches = [
        lambda session, llc=llc: api.run_grid(
            session, workloads, ["streamer"], length, llc_bytes=llc, record_pollution=True
        )
        for llc in POLLUTION_LLC_BYTES
    ]
    return Plan(specs, batches)


PLANS = {"st-grid": _st_grid, "mp-mix": _mp_mix, "st-pollution": _st_pollution}


def build_plan(name, seed, scale=1):
    """The plan for workload ``name``; ``scale`` > 1 shortens every trace."""
    return PLANS[name](seed, scale)
