"""DDR4 DRAM model with bandwidth-utilization tracking.

Implements the main-memory configuration of Table 2 (per channel: 2 ranks,
8 banks/rank, 64-bit data bus, 2KB row buffer, tCL=tRCD=tRP=15ns,
tRAS=39ns) for the three speed grades the paper sweeps (DDR4-1600 / 2133 /
2400) in one- and two-channel configurations — the six peak-bandwidth
points of Figures 1, 6 and 15.

Timing per request is open-page: a row-buffer hit pays tCL; a miss pays
tRP + tRCD + tCL; the 64B burst then serializes on the channel's shared
data bus.  Every burst is one CAS command.

:class:`BandwidthMonitor` is the Section 3.2 mechanism verbatim: a counter
of CAS commands over a ``4 x tRC``-cycle window, halved at every window
boundary for hysteresis, quantized into quartiles of the peak CAS rate and
exported as a 2-bit value that the prefetchers read.
"""

from dataclasses import dataclass
from typing import NamedTuple

#: Simulated core frequency (Table 2: 4 GHz x86 cores).
CORE_GHZ = 4.0


@dataclass(frozen=True)
class DramTimings:
    """DDR4 device timings in nanoseconds (Table 2)."""

    tCL_ns: float = 15.0
    tRCD_ns: float = 15.0
    tRP_ns: float = 15.0
    tRAS_ns: float = 39.0

    @property
    def tRC_ns(self):
        """Row-cycle time: minimum gap between two activations of a bank."""
        return self.tRAS_ns + self.tRP_ns

    def to_cycles(self, ns, core_ghz=CORE_GHZ):
        """Convert a nanosecond latency to (integer) core cycles."""
        return max(1, round(ns * core_ghz))


#: Peak per-channel bandwidth in GB/s for each DDR4 speed grade:
#: transfer rate (MT/s) x 8 bytes per transfer.
SPEED_GRADE_GBPS = {
    1600: 12.8,
    2133: 17.064,
    2400: 19.2,
}


@dataclass(frozen=True)
class DramConfig:
    """One main-memory configuration (speed grade x channel count)."""

    speed_grade: int = 2133
    channels: int = 1
    ranks_per_channel: int = 2
    banks_per_rank: int = 8
    row_bytes: int = 2048
    line_size: int = 64
    timings: DramTimings = DramTimings()
    core_ghz: float = CORE_GHZ

    def __post_init__(self):
        if self.speed_grade not in SPEED_GRADE_GBPS:
            known = ", ".join(str(k) for k in sorted(SPEED_GRADE_GBPS))
            raise ValueError(f"unknown speed grade {self.speed_grade} (known: {known})")
        if self.channels < 1 or self.channels & (self.channels - 1):
            raise ValueError("channel count must be a positive power of two")

    @property
    def peak_gbps(self):
        """Aggregate peak bandwidth across all channels."""
        return SPEED_GRADE_GBPS[self.speed_grade] * self.channels

    @property
    def burst_cycles(self):
        """Core cycles to move one 64B line over one channel's data bus."""
        ns = self.line_size / SPEED_GRADE_GBPS[self.speed_grade]
        return max(1, round(ns * self.core_ghz))

    @property
    def banks_per_channel(self):
        return self.ranks_per_channel * self.banks_per_rank

    @property
    def lines_per_row(self):
        return self.row_bytes // self.line_size

    def label(self):
        """Human-readable name, e.g. ``'2ch-2400'`` as in Figure 15."""
        return f"{self.channels}ch-{self.speed_grade}"


class DramCounters(NamedTuple):
    """The DRAM statistics a run's result reads.

    :meth:`DramModel.counters` takes them from the objects and the
    compiled kernel from its flat slots; :func:`bucket_residency` and
    :func:`achieved_gbps` are the one definition of what each side reports.
    """

    reads: int
    writes: int
    #: Completion cycle of the last burst.
    last_data_done: int
    #: Cycle the measured region started (the warmup-boundary reset).
    stats_start: int
    #: Sampled cycles per bandwidth-utilization quartile bucket.
    bucket_cycles: tuple


def bucket_residency(bucket_cycles):
    """Fraction of sampled time spent in each quartile bucket."""
    total = sum(bucket_cycles)
    if total == 0:
        return [1.0, 0.0, 0.0, 0.0]
    return [c / total for c in bucket_cycles]


def achieved_gbps(config, counters, total_cycles):
    """Average delivered bandwidth over ``total_cycles`` of measurement.

    Clamped to the completion time of the last burst, so a backlogged
    run cannot report more than the physical peak.
    """
    span = max(total_cycles, counters.last_data_done - counters.stats_start)
    if span <= 0:
        return 0.0
    bytes_moved = (counters.reads + counters.writes) * config.line_size
    seconds = span / (config.core_ghz * 1e9)
    return bytes_moved / seconds / 1e9


class BandwidthMonitor:
    """Section 3.2's windowed CAS counter with quartile quantization.

    The counter accumulates CAS commands and is halved at every window
    boundary (4 x tRC cycles), so at a steady CAS rate ``r`` per window the
    counter converges to ``2r`` — the quartile thresholds are scaled by the
    same factor of two so the exported 2-bit bucket reflects the true
    utilization quartile.
    """

    __slots__ = (
        "window_cycles",
        "peak_cas_per_window",
        "_thresholds",
        "_counter",
        "_window_end",
        "total_cas",
        "_bucket_cycles",
        "_last_sample_cycle",
    )

    def __init__(self, window_cycles, peak_cas_per_window):
        if window_cycles <= 0 or peak_cas_per_window <= 0:
            raise ValueError("window and peak CAS rate must be positive")
        self.window_cycles = window_cycles
        self.peak_cas_per_window = peak_cas_per_window
        self._thresholds = (
            0.25 * peak_cas_per_window,
            0.50 * peak_cas_per_window,
            0.75 * peak_cas_per_window,
        )
        self._counter = 0.0
        self._window_end = window_cycles
        self.total_cas = 0
        self._bucket_cycles = [0, 0, 0, 0]
        self._last_sample_cycle = 0

    def _advance(self, cycle):
        if cycle < self._window_end:
            return
        bucket = self._instant_bucket()
        elapsed = cycle - self._last_sample_cycle
        self._bucket_cycles[bucket] += elapsed
        self._last_sample_cycle = cycle
        while cycle >= self._window_end:
            self._counter /= 2.0
            self._window_end += self.window_cycles

    def record_cas(self, cycle):
        """Count one CAS command issued at ``cycle``."""
        if cycle >= self._window_end:
            self._advance(cycle)
        self._counter += 1.0
        self.total_cas += 1

    def _rate_estimate(self, cycle):
        """Per-window CAS rate implied by the counter at ``cycle``.

        Under a steady rate ``r`` the counter carries ``r`` from the
        previous halving and accumulates ``r * t`` through the current
        window (``t`` = elapsed fraction), so ``counter / (1 + t)``
        recovers ``r`` independent of the sampling phase.
        """
        window_start = self._window_end - self.window_cycles
        elapsed = min(max(cycle - window_start, 0), self.window_cycles)
        t = elapsed / self.window_cycles
        return self._counter / (1.0 + t)

    def _instant_bucket(self, cycle=None):
        lo, mid, hi = self._thresholds
        rate = self._rate_estimate(self._last_sample_cycle if cycle is None else cycle)
        if rate >= hi:
            return 3
        if rate >= mid:
            return 2
        if rate >= lo:
            return 1
        return 0

    def bucket(self, cycle):
        """The 2-bit quantized bandwidth-utilization value at ``cycle``."""
        self._advance(cycle)
        return self._instant_bucket(cycle)

    def utilization(self, cycle):
        """Fractional utilization estimate (rate vs. peak rate)."""
        self._advance(cycle)
        return min(1.0, self._rate_estimate(cycle) / self.peak_cas_per_window)

    def bucket_residency(self):
        """Fraction of sampled time spent in each quartile bucket."""
        return bucket_residency(self._bucket_cycles)

    def reset_stats(self):
        """Zero accumulated statistics; the live counter state survives."""
        self.total_cas = 0
        self._bucket_cycles = [0, 0, 0, 0]


class FixedBandwidth:
    """A constant bandwidth signal — handy for tests and ablations."""

    def __init__(self, bucket_value=0):
        if not 0 <= bucket_value <= 3:
            raise ValueError("bucket must be in 0..3")
        self._bucket = bucket_value

    def bucket(self, cycle):
        return self._bucket

    def set_bucket(self, bucket_value):
        if not 0 <= bucket_value <= 3:
            raise ValueError("bucket must be in 0..3")
        self._bucket = bucket_value


class _Bank:
    __slots__ = ("open_row", "next_activate_cycle", "row_ready_cycle")

    def __init__(self):
        self.open_row = -1
        #: Earliest cycle the next ACT may issue (tRC from the last ACT).
        self.next_activate_cycle = 0
        #: Cycle the open row becomes CAS-ready (ACT + tRP + tRCD).
        self.row_ready_cycle = 0


class _Channel:
    __slots__ = ("banks", "bus_free_cycle", "demand_bus_free_cycle")

    def __init__(self, num_banks):
        self.banks = [_Bank() for _ in range(num_banks)]
        #: End of the full serialized burst queue (capacity truth).
        self.bus_free_cycle = 0
        #: End of the last demand burst (demands serialize among themselves).
        self.demand_bus_free_cycle = 0


class DramModel:
    """Banked, open-page DRAM with per-channel bus serialization.

    Scheduling models a demand-first controller (FR-FCFS with demand
    priority): a demand burst preempts the queued prefetch backlog, waiting
    behind at most ``DEMAND_MAX_PREEMPT_WAIT_BURSTS`` bursts already at the
    bus head, and pushes the rest of the backlog one slot later (capacity
    is conserved — the queue shifts, it does not vanish).  Prefetch bursts
    go to the back of the queue, so prefetch pressure raises *prefetch*
    latency first and demand latency only moderately — exactly the paper's
    "pressure on memory bandwidth ... can increase the latency of responses
    from memory" cost (Section 2.4), without the unrealistic
    demands-stuck-behind-the-whole-prefetch-queue behaviour of a pure FIFO.

    Prefetch requests are additionally rejected under extreme bus backlog
    (a last-resort guard); the first-order prefetch throttle is the
    per-core outstanding-prefetch bound in
    :class:`repro.memory.hierarchy.MemoryHierarchy`.
    """

    #: Maximum bus backlog (in line bursts) before prefetches are dropped.
    PREFETCH_DROP_BACKLOG_BURSTS = 256
    #: How many queued bursts a demand can be forced to wait behind.
    DEMAND_MAX_PREEMPT_WAIT_BURSTS = 2
    #: How many row cycles (tRC) of queued prefetch activations a demand
    #: row-miss can be forced to wait behind at a bank.  Demand ACTs
    #: preempt the rest of the backlog (which is pushed later, conserving
    #: bank capacity), mirroring the bus-level demand priority above.
    DEMAND_MAX_PREEMPT_WAIT_ACTS = 2

    __slots__ = (
        "config",
        "tCL",
        "tRCD",
        "tRP",
        "tRC",
        "burst",
        "_channels",
        "_channel_mask",
        "_bank_mask",
        "_channel_bits",
        "_bank_bits",
        "_row_shift",
        "monitor",
        "reads",
        "writes",
        "row_hits",
        "row_misses",
        "busy_cycles",
        "prefetches_dropped",
        "_last_data_done",
        "_stats_start_cycle",
        "_prefetch_drop_backlog",
        "_demand_preempt_bursts",
        "_demand_preempt_acts",
        "_record_cas",
    )

    def __init__(self, config: DramConfig = DramConfig()):
        self.config = config
        t = config.timings
        ghz = config.core_ghz
        self.tCL = t.to_cycles(t.tCL_ns, ghz)
        self.tRCD = t.to_cycles(t.tRCD_ns, ghz)
        self.tRP = t.to_cycles(t.tRP_ns, ghz)
        self.tRC = t.to_cycles(t.tRC_ns, ghz)
        self.burst = config.burst_cycles
        self._channels = [_Channel(config.banks_per_channel) for _ in range(config.channels)]
        self._channel_mask = config.channels - 1
        self._bank_mask = config.banks_per_channel - 1
        self._channel_bits = (config.channels - 1).bit_length()
        self._bank_bits = (config.banks_per_channel - 1).bit_length()
        self._row_shift = (config.lines_per_row - 1).bit_length()
        window = 4 * self.tRC
        peak_cas = window / self.burst * config.channels
        self.monitor = BandwidthMonitor(window, peak_cas)
        # Hot-path precomputations (constants never change per instance).
        self._prefetch_drop_backlog = self.PREFETCH_DROP_BACKLOG_BURSTS * self.burst
        self._demand_preempt_bursts = self.DEMAND_MAX_PREEMPT_WAIT_BURSTS * self.burst
        self._demand_preempt_acts = self.DEMAND_MAX_PREEMPT_WAIT_ACTS * self.tRC
        self._record_cas = self.monitor.record_cas
        # Statistics
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.row_misses = 0
        self.busy_cycles = 0
        self.prefetches_dropped = 0
        self._last_data_done = 0
        #: Cycle at which the measured region starts (post-warmup floor).
        self._stats_start_cycle = 0

    def _route(self, line_addr):
        """Line-interleaved channels; row-interleaved banks.

        Consecutive lines (after channel selection) fall in the same row of
        the same bank, so streaming accesses enjoy open-page row hits — the
        standard mapping for spatial locality.
        """
        channel_idx = line_addr & self._channel_mask
        rest = line_addr >> self._channel_bits
        bank_idx = (rest >> self._row_shift) & self._bank_mask
        row = rest >> (self._row_shift + self._bank_bits)
        return self._channels[channel_idx], bank_idx, row

    def access(self, cycle, line_addr, is_write=False, is_prefetch=False):
        """Service one 64B request; returns its latency in core cycles.

        Returns ``None`` for a prefetch rejected by the bounded prefetch
        queue (demands are never rejected).
        """
        cycle = int(cycle)
        burst = self.burst
        # Inlined _route: line-interleaved channels, row-interleaved banks.
        channel = self._channels[line_addr & self._channel_mask]
        rest = line_addr >> self._channel_bits
        bank = channel.banks[(rest >> self._row_shift) & self._bank_mask]
        row = rest >> (self._row_shift + self._bank_bits)
        if is_prefetch:
            if channel.bus_free_cycle - cycle > self._prefetch_drop_backlog:
                self.prefetches_dropped += 1
                return None
        if bank.open_row == row:
            # Row hit: CAS as soon as the open row is ready; hits pipeline.
            self.row_hits += 1
            row_wait = bank.row_ready_cycle
            if not is_prefetch:
                # A demand hit to a row opened by a far-future queued
                # prefetch ACT does not wait for the whole backlog.
                bound = cycle + self._demand_preempt_acts
                if row_wait > bound:
                    row_wait = bound
            cas_start = cycle if cycle > row_wait else row_wait
            bus_ready = cas_start + self.tCL
        else:
            # Row miss: precharge + activate, bounded by the bank's tRC
            # activate-to-activate constraint; subsequent hits to the new
            # row need only wait for row_ready, not tRC.
            self.row_misses += 1
            next_act = bank.next_activate_cycle
            if is_prefetch:
                act_start = cycle if cycle > next_act else next_act
                bank.next_activate_cycle = act_start + self.tRC
            else:
                # Demand ACTs preempt queued prefetch activations, waiting
                # behind at most DEMAND_MAX_PREEMPT_WAIT_ACTS row cycles;
                # the displaced backlog is pushed one tRC later (bank
                # capacity is conserved — the queue shifts, it does not
                # shrink).
                preempt_bound = cycle + self._demand_preempt_acts
                act_start = next_act if next_act < preempt_bound else preempt_bound
                if act_start < cycle:
                    act_start = cycle
                bank.next_activate_cycle = (
                    next_act if next_act > act_start else act_start
                ) + self.tRC
            bank.open_row = row
            row_ready = act_start + self.tRP + self.tRCD
            bank.row_ready_cycle = row_ready
            bus_ready = row_ready + self.tCL
        # The bus is a capacity meter, not a FIFO of possibly-stalled
        # requests: each burst reserves one bus slot in arrival order, but a
        # request whose bank is not yet ready completes later *without*
        # holding the bus back — approximating FR-FCFS, where ready CAS
        # commands bypass stalled ones.
        bus_free = channel.bus_free_cycle
        if is_prefetch:
            slot = bus_free if bus_free > cycle else cycle
            channel.bus_free_cycle = slot + burst
            data_start = bus_ready if bus_ready > slot else slot
            data_done = data_start + burst
        else:
            # Demands preempt: wait behind at most the burst(s) already at
            # the bus head, serialize with other demands, and consume one
            # bus slot of capacity.
            head_wait = bus_free - bus_ready
            if head_wait < 0:
                head_wait = 0
            elif head_wait > self._demand_preempt_bursts:
                head_wait = self._demand_preempt_bursts
            data_start = bus_ready + head_wait
            demand_free = channel.demand_bus_free_cycle
            if demand_free > data_start:
                data_start = demand_free
            data_done = data_start + burst
            channel.demand_bus_free_cycle = data_done
            channel.bus_free_cycle = (bus_free if bus_free > cycle else cycle) + burst
        self.busy_cycles += burst
        if data_done > self._last_data_done:
            self._last_data_done = data_done
        self._record_cas(data_start)
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        return data_done - cycle

    def demand_merge_bound(self):
        """Residual-latency bound when a demand merges an in-flight prefetch.

        The memory controller promotes a demand that hits an outstanding
        prefetch to demand priority, so the demand waits at most a clean
        demand round-trip — not the prefetch's queued completion time.
        """
        return (
            self.tRP
            + self.tRCD
            + self.tCL
            + (1 + self.DEMAND_MAX_PREEMPT_WAIT_BURSTS) * self.burst
        )

    # -- bandwidth signal (Section 3.2) ---------------------------------------

    def bucket(self, cycle):
        """The broadcast 2-bit bandwidth-utilization value."""
        return self.monitor.bucket(cycle)

    def utilization(self, cycle):
        return self.monitor.utilization(cycle)

    def achieved_gbps(self, total_cycles):
        """Average delivered bandwidth over ``total_cycles`` of measurement."""
        return achieved_gbps(self.config, self.counters(), total_cycles)

    def counters(self):
        """The statistics a run's result reads, as :class:`DramCounters`."""
        return DramCounters(
            self.reads,
            self.writes,
            self._last_data_done,
            self._stats_start_cycle,
            tuple(self.monitor._bucket_cycles),
        )

    def reset_stats(self, cycle=0):
        """Zero statistics at the warmup boundary; queue state survives."""
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.row_misses = 0
        self.busy_cycles = 0
        self.prefetches_dropped = 0
        self._stats_start_cycle = int(cycle)
        self.monitor.reset_stats()

    def stats(self):
        return {
            "reads": self.reads,
            "writes": self.writes,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "total_cas": self.monitor.total_cas,
        }


#: The six DRAM configurations of Figures 1, 6 and 15, in peak-GB/s order.
#: The paper's Table 2 machine DRAM configurations (frozen, shared
#: instances): single-thread = one DDR4-2133 channel, multi-programmed =
#: two.  Single source for `SystemConfig` factories and engine specs.
ST_DRAM = DramConfig(speed_grade=2133, channels=1)
MP_DRAM = DramConfig(speed_grade=2133, channels=2)

BANDWIDTH_SWEEP = (
    DramConfig(speed_grade=1600, channels=1),
    DramConfig(speed_grade=2133, channels=1),
    DramConfig(speed_grade=2400, channels=1),
    DramConfig(speed_grade=1600, channels=2),
    DramConfig(speed_grade=2133, channels=2),
    DramConfig(speed_grade=2400, channels=2),
)
