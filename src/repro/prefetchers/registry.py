"""Named prefetcher configurations used throughout the evaluation.

``build_prefetcher(name, bandwidth)`` constructs any scheme the paper
evaluates; composite names use ``+`` (e.g. ``"dspatch+spp"``).  The
bandwidth argument is the Section 3.2 utilization signal — required by the
bandwidth-aware schemes (DSPatch and its variants, eSPP, eBOP) and ignored
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
    from repro.core.variants import (
        AlwaysCovP,
        ModCovP,
        NoAnchorDSPatch,
        SingleTriggerDSPatch,
        no_reset_dspatch,
        uncompressed_dspatch,
    )

    return {
        "dspatch": lambda bw: DSPatch(bw),
        "alwayscovp": lambda bw: AlwaysCovP(bw),
        "modcovp": lambda bw: ModCovP(bw),
        "dspatch-noanchor": lambda bw: NoAnchorDSPatch(bw),
        "dspatch-1trigger": lambda bw: SingleTriggerDSPatch(bw),
        "dspatch-64b": uncompressed_dspatch,
        "dspatch-noreset": no_reset_dspatch,
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
