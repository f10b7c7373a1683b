"""Set-associative cache with prefetch bookkeeping.

The cache is functional (presence/eviction) plus lightly timed: each line
records the cycle its fill completes (``ready``) so a demand that arrives
while a prefetch is still in flight pays only the remaining latency — this
is how prefetch *timeliness* (Section 2, "the fraction of the latency ...
hidden by the prefetcher") is modelled.

Prefetch usefulness is tracked per line (``prefetched``, ``used``): a
lookup reports the first demand use of a prefetched line
(:attr:`Cache.last_access_first_use`) and a fill reports its victim's bits
(:class:`EvictionInfo`), from which
:class:`repro.memory.hierarchy.MemoryHierarchy` counts a prefetch *useful*
(late when its fill had not arrived) or *useless* — the raw ingredients of
the paper's coverage / misprediction accounting (Figure 16).  The cache
itself counts only demand misses.  Writebacks are not modelled, so a line
records no writes.

This class is the one statement of the lookup and replacement rules:
:class:`repro.memory.hierarchy.MemoryHierarchy` calls :meth:`Cache.access`
at every level it probes, and :meth:`Cache.fill` picks every victim.  Set
lookup is mask + shift (set counts are powers of two).  Each set is an
``OrderedDict`` kept in exact recency order (front = LRU): hits
``move_to_end``, normal fills append, low-priority fills move to the
front (Section 3.6's near-LRU insertion).  Every recency event consumes
a unique tick, kept as the line's ``last_touch``, so this order equals
sorting by ``last_touch``.  Two replacement policies exist, named by
:data:`VICTIM_MODES` (Table 2): ``"lru"`` (L1, L2) evicts the front
line; ``"pf-dead-block"`` (LLC, a sampling-free take on the
prefetch-aware dead-block predictor the paper cites) evicts the first
never-demanded prefetched line in recency order, the oldest dead one,
and falls back to the front.
"""

from collections import OrderedDict
from dataclasses import dataclass

from repro.constants import LINE_SIZE

#: Replacement-policy name -> victim mode, shared by :class:`Cache` and
#: the compiled kernel's layout: 0 evicts the front (LRU) line, 1 the
#: oldest never-demanded prefetched line, else the front.
VICTIM_MODES = {"lru": 0, "pf-dead-block": 1}


def victim_mode(name):
    """The victim mode of replacement policy ``name``; unknown names raise."""
    try:
        return VICTIM_MODES[name]
    except KeyError:
        known = ", ".join(sorted(VICTIM_MODES))
        raise ValueError(f"unknown replacement policy {name!r} (known: {known})") from None


class CacheLine:
    """One cache line's metadata (tag plus prefetch bookkeeping)."""

    __slots__ = ("tag", "prefetched", "used", "last_touch", "ready")

    def __init__(self, tag, tick, prefetched=False, ready=0):
        self.tag = tag
        self.prefetched = prefetched
        self.used = not prefetched
        self.last_touch = tick
        self.ready = ready


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level (see Table 2)."""

    name: str
    size_bytes: int
    ways: int
    hit_latency: int
    mshrs: int = 32
    replacement: str = "lru"

    @property
    def num_sets(self):
        sets = self.size_bytes // (self.ways * LINE_SIZE)
        if sets <= 0 or sets & (sets - 1):
            raise ValueError(
                f"{self.name}: derived set count {sets} must be a positive power of two"
            )
        return sets


class EvictionInfo:
    """What :meth:`Cache.fill` evicted, for pollution accounting."""

    __slots__ = ("line_addr", "was_prefetched", "was_used")

    def __init__(self, line_addr, was_prefetched, was_used):
        self.line_addr = line_addr
        self.was_prefetched = was_prefetched
        self.was_used = was_used

    def __eq__(self, other):
        if not isinstance(other, EvictionInfo):
            return NotImplemented
        return (
            self.line_addr == other.line_addr
            and self.was_prefetched == other.was_prefetched
            and self.was_used == other.was_used
        )

    def __repr__(self):
        return (
            f"EvictionInfo(line_addr={self.line_addr}, "
            f"was_prefetched={self.was_prefetched}, was_used={self.was_used})"
        )


class Cache:
    """A set-associative cache level."""

    __slots__ = (
        "config",
        "name",
        "num_sets",
        "hit_latency",
        "ways",
        "_sets",
        "_set_mask",
        "_tag_shift",
        "_victim_mode",
        "_tick",
        "last_access_first_use",
    )

    def __init__(self, config: CacheConfig):
        self.config = config
        self.name = config.name
        self.num_sets = config.num_sets
        self.hit_latency = config.hit_latency
        self.ways = config.ways
        self._sets = [OrderedDict() for _ in range(self.num_sets)]
        self._set_mask = self.num_sets - 1
        self._tag_shift = self.num_sets.bit_length() - 1
        self._victim_mode = victim_mode(config.replacement)
        self._tick = 0
        #: True when the most recent :meth:`access` was the first demand use
        #: of a prefetched line (the hierarchy reads it at L2 and LLC).
        self.last_access_first_use = False

    # -- queries -------------------------------------------------------------

    def probe(self, line_addr):
        """Return the line if present, without touching recency or stats."""
        return self._sets[line_addr & self._set_mask].get(line_addr >> self._tag_shift)

    def contains(self, line_addr):
        """True if ``line_addr`` is resident (no state change)."""
        return (
            self._sets[line_addr & self._set_mask].get(line_addr >> self._tag_shift)
            is not None
        )

    # -- demand path ---------------------------------------------------------

    def access(self, line_addr, cycle):
        """Demand lookup.  Returns the hit :class:`CacheLine` or ``None``.

        On a hit the line's recency is refreshed; if the hit is the first
        demand to a prefetched line, the line becomes used and
        :attr:`last_access_first_use` is set (the caller counts the
        prefetch useful, late when ``line.ready > cycle``).
        """
        lines = self._sets[line_addr & self._set_mask]
        tag = line_addr >> self._tag_shift
        line = lines.get(tag)
        tick = self._tick + 1
        self._tick = tick
        self.last_access_first_use = False
        if line is None:
            return None
        line.last_touch = tick
        lines.move_to_end(tag)
        if line.prefetched and not line.used:
            self.last_access_first_use = True
            line.used = True
        return line

    def touch_for_prefetcher(self, line_addr):
        """Mark a resident prefetched line as used without a demand access.

        Used by the hierarchy to propagate first-use information from an
        upper level (an L2 demand hit also 'uses' the LLC copy).
        """
        line = self.probe(line_addr)
        if line is not None and line.prefetched and not line.used:
            line.used = True

    # -- fill path -----------------------------------------------------------

    def fill(self, line_addr, cycle, prefetched=False, low_priority=False, ready=None, want_victim=True):
        """Install ``line_addr``; returns :class:`EvictionInfo` or ``None``.

        ``ready`` is the cycle at which the fill's data actually arrives
        (defaults to ``cycle``); demands arriving earlier pay the remainder.
        ``want_victim=False`` skips constructing the :class:`EvictionInfo`
        for callers that discard the return value — the hierarchy's L1/L2
        fills, which dominate fill volume.
        """
        set_idx = line_addr & self._set_mask
        lines = self._sets[set_idx]
        tag = line_addr >> self._tag_shift
        tick = self._tick + 1
        self._tick = tick
        existing = lines.get(tag)
        if existing is not None:
            # Refill of a resident line (e.g. prefetch to a present line is
            # filtered upstream; a demand refill just refreshes recency).
            existing.last_touch = tick
            lines.move_to_end(tag)
            return None
        evicted = None
        if len(lines) >= self.ways:
            victim = None
            if self._victim_mode == 1:
                # Dead-block: the first never-demanded prefetched line in
                # recency order is the oldest one.
                for cand in lines.values():
                    if cand.prefetched and not cand.used:
                        victim = cand
                        break
            if victim is None:
                # LRU: recency order makes the front line the victim.
                victim = next(iter(lines.values()))
            if want_victim:
                evicted = EvictionInfo(
                    (victim.tag << self._tag_shift) | set_idx,
                    victim.prefetched,
                    victim.used,
                )
            del lines[victim.tag]
            # Recycle the victim's line object for the incoming fill (same
            # dict-insertion position a fresh object would take).
            victim.tag = tag
            victim.prefetched = prefetched
            victim.used = not prefetched
            victim.last_touch = tick
            victim.ready = ready if ready is not None else cycle
            line = victim
        else:
            line = CacheLine(
                tag, tick, prefetched=prefetched, ready=ready if ready is not None else cycle
            )
        lines[tag] = line
        if low_priority:
            # Insert near LRU (Section 3.6's low-priority fill rule): the
            # line is the first eviction candidate unless demanded first.
            line.last_touch = -tick if tick else -1
            lines.move_to_end(tag, last=False)
        return evicted

    def invalidate(self, line_addr):
        """Drop ``line_addr`` if resident (no writeback modelling)."""
        self._sets[line_addr & self._set_mask].pop(line_addr >> self._tag_shift, None)

    def occupancy(self):
        """Total number of resident lines."""
        return sum(len(s) for s in self._sets)
