"""Named prefetcher configurations used throughout the evaluation.

``build_prefetcher(name, bandwidth)`` constructs any scheme the paper
evaluates; composite names use ``+`` (e.g. ``"dspatch+spp"``).  The
bandwidth argument is the Section 3.2 utilization signal — required by the
bandwidth-aware schemes (DSPatch and its ablations, eSPP, eBOP) and ignored
by the rest.
"""

from repro.prefetchers.ampm import AMPM
from repro.prefetchers.base import NullPrefetcher
from repro.prefetchers.bingo import Bingo
from repro.prefetchers.bop import BOP, EBOP, BopConfig
from repro.prefetchers.composite import CompositePrefetcher
from repro.prefetchers.markov import MarkovPrefetcher
from repro.prefetchers.nextline import NextLinePrefetcher
from repro.prefetchers.sms import SMS, sms_with_pht_entries
from repro.prefetchers.spp import ESPP, SPP
from repro.prefetchers.streamer import StreamPrefetcher
from repro.prefetchers.vldp import VLDP


def _dspatch_builders():
    # Imported lazily: repro.core depends on repro.prefetchers.base, so a
    # top-level import here would be circular.
    from repro.core.dspatch import DSPatch, DSPatchConfig

    def ablation(name, **fields):
        # The Figure 19 and design-choice ablations carry their own name
        # (scheme events, composite storage keys, table rows).
        def build(bw):
            pf = DSPatch(bw, DSPatchConfig(**fields))
            pf.name = name
            return pf

        return build

    return {
        "dspatch": lambda bw: DSPatch(bw),
        "alwayscovp": ablation("alwayscovp", selection="covp"),
        "modcovp": ablation("modcovp", selection="modcovp"),
        "dspatch-noanchor": ablation("dspatch-noanchor", anchored=False),
        "dspatch-1trigger": ablation("dspatch-1trigger", segment1_trigger=False),
        "dspatch-64b": lambda bw: DSPatch(bw, DSPatchConfig(compressed=False)),
        "dspatch-noreset": lambda bw: DSPatch(bw, DSPatchConfig(covp_reset=False)),
        "dspatch-spt512": lambda bw: DSPatch(bw, DSPatchConfig(spt_entries=512)),
        "dspatch-spt128": lambda bw: DSPatch(bw, DSPatchConfig(spt_entries=128)),
        "dspatch-spt64": lambda bw: DSPatch(bw, DSPatchConfig(spt_entries=64)),
        "dspatch-pb128": lambda bw: DSPatch(bw, DSPatchConfig(pb_entries=128)),
        "dspatch-pb32": lambda bw: DSPatch(bw, DSPatchConfig(pb_entries=32)),
    }


_SIMPLE_BUILDERS = {
    "none": lambda bw: NullPrefetcher(),
    "spp": lambda bw: SPP(),
    "espp": lambda bw: ESPP(bw),
    "bop": lambda bw: BOP(),
    "bop1": lambda bw: BOP(BopConfig(degree=1)),
    "ebop": lambda bw: EBOP(bw),
    "sms": lambda bw: SMS(),
    "sms-4k": lambda bw: sms_with_pht_entries(4096),
    "sms-1k": lambda bw: sms_with_pht_entries(1024),
    "sms-256": lambda bw: sms_with_pht_entries(256),
    "ampm": lambda bw: AMPM(),
    "streamer": lambda bw: StreamPrefetcher(),
    # Related-work extensions (Section 6 families).
    "vldp": lambda bw: VLDP(),
    "bingo": lambda bw: Bingo(),
    "markov": lambda bw: MarkovPrefetcher(),
    "nextline": lambda bw: NextLinePrefetcher(),
    "nextline-4": lambda bw: NextLinePrefetcher(degree=4),
}


def _builders():
    """Every single-scheme builder by name, read at call time (the
    DSPatch family's imports cannot run while this module imports)."""
    return {**_SIMPLE_BUILDERS, **_dspatch_builders()}


def available_prefetchers():
    """Names accepted by :func:`build_prefetcher` (composites excluded)."""
    return sorted(_builders())


def build_prefetcher(name, bandwidth):
    """Construct the prefetcher configuration called ``name``.

    ``name`` may be a single scheme (``"spp"``), a ``+``-joined adjunct
    composition (``"dspatch+spp"``; components are listed in arbitration
    priority order), or an ``fdp:``-prefixed scheme that wraps the rest
    in the feedback-directed throttle (``"fdp:streamer"``).
    """
    name = name.strip().lower()
    if "+" in name:
        components = [build_prefetcher(part, bandwidth) for part in name.split("+")]
        return CompositePrefetcher(components, name=name)
    if name.startswith("fdp:"):
        from repro.prefetchers.throttle import FeedbackThrottle

        return FeedbackThrottle(build_prefetcher(name[len("fdp:"):], bandwidth))
    builder = _builders().get(name)
    if builder is None:
        known = ", ".join(available_prefetchers())
        raise ValueError(f"unknown prefetcher {name!r} (known: {known})") from None
    return builder(bandwidth)
