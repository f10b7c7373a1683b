"""Common prefetcher interface.

L2 prefetchers are trained on L1 misses — both demand misses and misses of
L1 prefetches — and their candidates fill the L2 and the LLC (Section 4.1).
The hierarchy calls :meth:`Prefetcher.train` once per training access and
issues whatever candidates come back, after presence/in-flight filtering.

Bandwidth-aware prefetchers (DSPatch, eSPP, eBOP) receive a
``BandwidthSource`` — any object with a ``bucket(cycle) -> int`` method
returning the 2-bit utilization value of Section 3.2.  The DRAM model
provides the real signal; :class:`repro.memory.dram.FixedBandwidth` provides
a constant one for tests and ablations.
"""

from typing import Protocol


class BandwidthSource(Protocol):
    """Anything that can report the 2-bit DRAM bandwidth-utilization value."""

    def bucket(self, cycle) -> int:
        """Return the quantized utilization quartile (0..3) at ``cycle``."""
        ...


class PrefetchCandidate:
    """One line-granular prefetch request emitted by a prefetcher."""

    __slots__ = ("line_addr", "low_priority")

    def __init__(self, line_addr, low_priority=False):
        self.line_addr = line_addr
        self.low_priority = low_priority

    def __repr__(self):
        tag = " low" if self.low_priority else ""
        return f"PrefetchCandidate(0x{self.line_addr:x}{tag})"

    def __eq__(self, other):
        return (
            isinstance(other, PrefetchCandidate)
            and other.line_addr == self.line_addr
            and other.low_priority == self.low_priority
        )

    def __hash__(self):
        return hash((self.line_addr, self.low_priority))


class Prefetcher:
    """Base class for all prefetchers."""

    name = "base"

    #: Scheme-event emission hook, installed by an observed hierarchy when
    #: prefetch tracing is on (``None`` otherwise) — every registry scheme
    #: inherits it through this base class.
    trace_emit = None

    def train(self, cycle, pc, addr, hit):
        """Observe one training access; return prefetch candidates.

        ``addr`` is a byte address; ``hit`` says whether the access hit in
        the cache level the prefetcher sits at (some baselines ignore it).

        The returned sequence is only valid until the next ``train`` call
        on the same prefetcher: implementations may reuse a pooled list
        (``CompositePrefetcher`` does).  The hierarchy issues candidates
        immediately; any caller that wants to keep them must copy.
        """
        raise NotImplementedError

    def storage_bits(self):
        """Total hardware budget in bits (Tables 1 and 3)."""
        return sum(self.storage_breakdown().values())

    def storage_breakdown(self):
        """Per-structure bit counts; keys name the hardware structures."""
        return {}

    def storage_kb(self):
        """Storage in kilobytes, as the paper quotes it."""
        return self.storage_bits() / 8 / 1024

    # Optional tracing hooks (docs/observability.md).  The observed
    # hierarchy attaches an emitter when ``--trace-prefetch`` is on;
    # schemes call ``trace_event`` at interesting internal decisions
    # (pattern selection, throttle transitions).  Unattached, the call is
    # one attribute load — cheap enough to leave in scheme code.

    def attach_trace(self, emit):
        """Install the ``emit(cycle, name, info)`` scheme-event hook."""
        self.trace_emit = emit

    def trace_event(self, cycle, info=""):
        """Emit a ``scheme`` trace event if a hook is attached."""
        emit = self.trace_emit
        if emit is not None:
            emit(cycle, self.name, info)

    # Optional feedback hooks; the hierarchy calls these so prefetchers that
    # track their own usefulness (the fdp: throttle's accuracy) can do so.

    def note_useful_prefetch(self, cycle, line_addr):
        """A previously issued prefetch was demanded before eviction."""

    def note_useless_prefetch(self, cycle, line_addr):
        """A previously issued prefetch left the cache untouched."""

    def reset(self):
        """Drop all learned state (not statistics structures' contents)."""


class NullPrefetcher(Prefetcher):
    """The no-op prefetcher: the paper's no-L2-prefetch baseline."""

    name = "none"

    def train(self, cycle, pc, addr, hit):
        return ()

    def storage_breakdown(self):
        return {}
