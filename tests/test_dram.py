"""Tests for the DRAM model and the Section 3.2 bandwidth monitor."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory.dram import (
    BANDWIDTH_SWEEP,
    TRC_NS,
    BandwidthMonitor,
    DramConfig,
    DramModel,
    FixedBandwidth,
    to_cycles,
)


class TestTimings:
    def test_trc_is_tras_plus_trp(self):
        assert TRC_NS == 54.0

    def test_to_cycles_at_4ghz(self):
        assert to_cycles(15.0) == 60
        assert to_cycles(39.0) == 156

    def test_to_cycles_minimum_one(self):
        assert to_cycles(0.01) == 1


class TestConfig:
    def test_peak_bandwidth_per_grade(self):
        assert DramConfig(speed_grade=1600).peak_gbps == pytest.approx(12.8)
        assert DramConfig(speed_grade=2133).peak_gbps == pytest.approx(17.064)
        assert DramConfig(speed_grade=2400).peak_gbps == pytest.approx(19.2)

    def test_two_channels_double_peak(self):
        one = DramConfig(speed_grade=2133, channels=1)
        two = DramConfig(speed_grade=2133, channels=2)
        assert two.peak_gbps == pytest.approx(2 * one.peak_gbps)

    def test_burst_cycles(self):
        # 64B at 17.064 GB/s = 3.75ns = 15 cycles at 4GHz.
        assert DramConfig(speed_grade=2133).burst_cycles == 15

    def test_rejects_unknown_grade(self):
        with pytest.raises(ValueError):
            DramConfig(speed_grade=3200)

    def test_rejects_bad_channel_count(self):
        with pytest.raises(ValueError):
            DramConfig(channels=3)

    def test_label(self):
        assert DramConfig(speed_grade=2400, channels=2).label() == "2ch-2400"

    def test_sweep_is_monotonic_in_peak(self):
        peaks = [d.peak_gbps for d in BANDWIDTH_SWEEP]
        assert peaks == sorted(peaks)
        assert len(BANDWIDTH_SWEEP) == 6


class TestAccessTiming:
    def test_row_hit_faster_than_miss(self):
        d = DramModel(DramConfig())
        first = d.access(0, 0)  # row miss (activate)
        second = d.access(10_000, 1)  # same row, later -> row hit
        assert second < first

    def test_row_hit_pays_cas_only(self):
        """On an idle channel a row miss pays precharge, activate and CAS;
        a row hit pays only the CAS."""
        d = DramModel(DramConfig())
        assert d.access(0, 0) == d.tRP + d.tRCD + d.tCL + d.burst
        assert d.access(10_000, 1) == d.tCL + d.burst

    def test_bank_holds_one_open_row(self):
        """Opening another row of a bank closes the one it held."""
        cfg = DramConfig()
        d = DramModel(cfg)
        miss = d.tRP + d.tRCD + d.tCL + d.burst
        other_row = cfg.lines_per_row * cfg.banks_per_channel  # bank 0, row 1
        d.access(0, 0)
        assert d.access(10_000, other_row) == miss  # row conflict
        assert d.access(20_000, 1) == miss  # row 0 was closed
        assert d.access(30_000, 2) == d.tCL + d.burst  # row 0 is open again

    def test_latency_at_least_burst(self):
        d = DramModel(DramConfig())
        assert d.access(0, 0) >= d.burst

    def test_bus_serializes_same_cycle_requests(self):
        d = DramModel(DramConfig(channels=1))
        lat_first = d.access(0, 0)
        lat_second = d.access(0, 2 * d.config.banks_per_channel)  # same bank? no: different row same bank idx
        assert lat_second >= lat_first  # queued behind on bus or bank

    def test_two_channels_split_traffic(self):
        one = DramModel(DramConfig(channels=1))
        two = DramModel(DramConfig(channels=2))
        lines = list(range(32))
        lat1 = sum(one.access(0, line) for line in lines)
        lat2 = sum(two.access(0, line) for line in lines)
        assert lat2 < lat1

    def test_read_write_counters(self):
        d = DramModel(DramConfig())
        d.access(0, 0, is_write=False)
        d.access(0, 1, is_write=True)
        assert d.reads == 1 and d.writes == 1

    def test_demand_priority_bounds_wait(self):
        """A demand behind a deep prefetch backlog waits at most ~2 bursts
        beyond its device latency."""
        d = DramModel(DramConfig())
        # Build a deep prefetch backlog on the channel.
        for i in range(30):
            d.access(0, 2 * i, is_prefetch=True)
        row_miss_latency = d.tRP + d.tRCD + d.tCL + d.burst
        demand_latency = d.access(0, 999, is_prefetch=False)
        max_wait = d.DEMAND_MAX_PREEMPT_WAIT_BURSTS * d.burst
        assert demand_latency <= row_miss_latency + max_wait

    def test_prefetch_queues_behind_backlog(self):
        d = DramModel(DramConfig())
        for i in range(30):
            d.access(0, 2 * i, is_prefetch=True)
        late_prefetch = d.access(0, 999, is_prefetch=True)
        assert late_prefetch > d.tRP + d.tRCD + d.tCL + d.burst

    def test_extreme_backlog_drops_prefetches(self):
        d = DramModel(DramConfig())
        dropped = 0
        for i in range(600):
            if d.access(0, 2 * i, is_prefetch=True) is None:
                dropped += 1
        assert dropped > 0
        assert d.reads == 600 - dropped  # a dropped prefetch moves no data

    def test_demands_never_dropped(self):
        d = DramModel(DramConfig())
        for i in range(600):
            d.access(0, 2 * i, is_prefetch=True)
        assert d.access(0, 9999, is_prefetch=False) is not None

    def test_achieved_bandwidth_below_peak(self):
        d = DramModel(DramConfig())
        cycle = 0
        for i in range(200):
            d.access(cycle, i)
            cycle += 5
        assert 0 < d.achieved_gbps(cycle) <= d.config.peak_gbps


class TestBandwidthMonitor:
    def test_initial_bucket_zero(self):
        m = BandwidthMonitor(window_cycles=100, peak_cas_per_window=10)
        assert m.bucket(0) == 0

    def test_saturating_traffic_reaches_bucket3(self):
        m = BandwidthMonitor(window_cycles=100, peak_cas_per_window=10)
        for cycle in range(0, 1000, 10):  # exactly peak rate
            m.record_cas(cycle)
        assert m.bucket(1000) == 3

    def test_light_traffic_stays_low(self):
        m = BandwidthMonitor(window_cycles=100, peak_cas_per_window=10)
        for cycle in range(0, 1000, 100):  # 10% of peak
            m.record_cas(cycle)
        assert m.bucket(1000) <= 1

    def test_half_traffic_mid_bucket(self):
        m = BandwidthMonitor(window_cycles=100, peak_cas_per_window=10)
        for cycle in range(0, 2000, 17):  # ~59% of peak
            m.record_cas(cycle)
        assert m.bucket(2000) == 2

    def test_hysteresis_decay(self):
        """The counter halves per window, so utilization decays after a
        burst rather than dropping instantly (Section 3.2)."""
        m = BandwidthMonitor(window_cycles=100, peak_cas_per_window=10)
        for cycle in range(0, 500, 5):
            m.record_cas(cycle)
        assert m.bucket(500) == 3
        assert m.bucket(700) < 3  # decayed after two idle windows
        assert m.bucket(2000) == 0  # fully decayed

    def test_total_cas_counted(self):
        """Every CAS of a window adds one to its counter; the window's
        end halves it (Section 3.2)."""
        m = BandwidthMonitor(window_cycles=100, peak_cas_per_window=10)
        for cycle in range(0, 100, 10):
            m.record_cas(cycle)
        assert m._counter == 10
        m.record_cas(100)
        assert m._counter == 10 / 2 + 1

    def test_utilization_bounded(self):
        m = BandwidthMonitor(window_cycles=100, peak_cas_per_window=10)
        for cycle in range(0, 100, 1):
            m.record_cas(cycle)
        assert 0.0 <= m.utilization(100) <= 1.0

    def test_bucket_residency_sums_to_one(self):
        m = BandwidthMonitor(window_cycles=100, peak_cas_per_window=10)
        for cycle in range(0, 5000, 7):
            m.record_cas(cycle)
        assert sum(m.bucket_residency()) == pytest.approx(1.0)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            BandwidthMonitor(0, 10)
        with pytest.raises(ValueError):
            BandwidthMonitor(100, 0)

    @given(st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=300))
    def test_bucket_always_valid(self, cycles):
        m = BandwidthMonitor(window_cycles=864, peak_cas_per_window=57.6)
        for cycle in sorted(cycles):
            m.record_cas(cycle)
            assert 0 <= m.bucket(cycle) <= 3

    #: Windows a steady stream runs before it is measured: the counter,
    #: which starts at 0, is then within a fraction of a CAS of steady.
    WARMUP_WINDOWS = 16

    @given(
        window=st.integers(100, 4000),
        peak=st.integers(40, 200),
        quartile=st.integers(0, 3),
        position=st.floats(0.0, 1.0),
        windows=st.integers(4, 40),
        samples_per_window=st.integers(2, 64),
    )
    def test_steady_stream_residency_matches_time_weighted_bucket(
        self, window, peak, quartile, position, windows, samples_per_window
    ):
        """For a steady CAS stream, the residency is the time-weighted
        distribution of ``bucket()`` sampled on a regular grid.

        The rate is drawn inside a quartile, at least 3 CAS per window
        from its edges: whole CAS arrive at the rounded times of a
        fractional period, so the counter sits within 2 CAS of steady
        and a rate nearer an edge has no single bucket.
        """
        edges = (0, peak / 4, peak / 2, 3 * peak / 4, peak)
        lo, hi = edges[quartile] + 3, edges[quartile + 1] - 3
        period = window / (lo + position * (hi - lo))
        start = self.WARMUP_WINDOWS * window
        end = start + windows * window
        cas = [int(k * period) for k in range(int(end / period) + 1) if k * period < end]
        m = BandwidthMonitor(window_cycles=window, peak_cas_per_window=peak)
        for cycle in cas:
            if cycle >= start:
                break
            m.record_cas(cycle)
        # Measure from the warmup's end: the windows closed after it.
        m.bucket(start)
        m.reset_stats()
        measured = [cycle for cycle in cas if cycle >= start]
        samples = [0, 0, 0, 0]
        i = 0
        for t in range(start, end, max(1, window // samples_per_window)):
            while i < len(measured) and measured[i] <= t:
                m.record_cas(measured[i])
                i += 1
            samples[m.bucket(t)] += 1
        for cycle in measured[i:]:
            m.record_cas(cycle)
        m.bucket(end)
        sampled = [n / sum(samples) for n in samples]
        assert m.bucket_residency() == sampled == [float(b == quartile) for b in range(4)]

    def test_idle_windows_are_charged_at_their_decayed_rate(self):
        """After a stream stops, each window closes at its end phase: at
        half the counter, which halves every window."""
        m = BandwidthMonitor(window_cycles=1000, peak_cas_per_window=100)
        for cycle in range(0, 20_000, 12):  # 83 CAS per window: bucket 3
            m.record_cas(cycle)
        m.bucket(20_000)
        before = list(m._bucket_cycles)
        assert m.bucket(20_000) == 3
        m.bucket(30_000)
        idle = [after - was for after, was in zip(m._bucket_cycles, before)]
        # rates 41.7, 20.8, 10.4, ... CAS per window
        assert idle == [9000, 1000, 0, 0]


class TestFixedBandwidth:
    def test_constant(self):
        f = FixedBandwidth(2)
        assert f.bucket(0) == 2
        assert f.bucket(10**9) == 2

    def test_set_bucket(self):
        f = FixedBandwidth(0)
        f.set_bucket(3)
        assert f.bucket(0) == 3

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FixedBandwidth(4)
        with pytest.raises(ValueError):
            FixedBandwidth(0).set_bucket(-1)
