"""Tests for the trace format and builder."""

import numpy as np
import pytest

from repro.cpu.trace import FLAG_DEP, FLAG_WRITE, Trace, TraceBuilder


class TestTrace:
    def test_from_records_roundtrip(self):
        records = [(3, 0x400, 0x1000, 0), (0, 0x404, 0x2040, FLAG_WRITE)]
        trace = Trace.from_records(records)
        assert list(trace) == records

    def test_empty(self):
        trace = Trace.from_records([])
        assert len(trace) == 0
        assert trace.instructions == 0
        assert trace.mpki_upper_bound() == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Trace([1], [1, 2], [1], [0])

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            Trace([-1], [1], [1], [0])

    def test_instructions(self):
        trace = Trace.from_records([(9, 1, 64, 0), (4, 2, 128, 0)])
        assert trace.instructions == 15  # 13 gaps + 2 memory ops

    def test_mpki_upper_bound(self):
        trace = Trace.from_records([(999, 1, 64, 0)])
        assert trace.mpki_upper_bound() == pytest.approx(1.0)

    def test_indexing(self):
        trace = Trace.from_records([(1, 2, 64, 0), (3, 4, 128, FLAG_DEP)])
        assert trace[1] == (3, 4, 128, FLAG_DEP)

    def test_slicing(self):
        trace = Trace.from_records([(i, i, 64 * i, 0) for i in range(10)])
        sliced = trace[2:5]
        assert len(sliced) == 3
        assert sliced[0] == (2, 2, 128, 0)

    def test_concat(self):
        a = Trace.from_records([(1, 1, 64, 0)])
        b = Trace.from_records([(2, 2, 128, 0)])
        joined = Trace.concat([a, b])
        assert list(joined) == [(1, 1, 64, 0), (2, 2, 128, 0)]

    def test_concat_skips_empty(self):
        a = Trace.from_records([])
        b = Trace.from_records([(2, 2, 128, 0)])
        assert len(Trace.concat([a, b])) == 1

    def test_rebase_shifts_addresses_only(self):
        trace = Trace.from_records([(1, 2, 64, FLAG_WRITE)])
        shifted = trace.rebase(1 << 40)
        assert shifted[0] == (1, 2, 64 + (1 << 40), FLAG_WRITE)
        assert trace[0][2] == 64  # original untouched


class TestBuilder:
    def test_append(self):
        b = TraceBuilder()
        b.append(5, 0x400, 0x1000)
        b.append(0, 0x404, 0x2000, write=True, dep=True)
        trace = b.build()
        assert trace[0] == (5, 0x400, 0x1000, 0)
        assert trace[1] == (0, 0x404, 0x2000, FLAG_WRITE | FLAG_DEP)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            TraceBuilder().append(-1, 0, 0)

    def test_len(self):
        b = TraceBuilder()
        assert len(b) == 0
        b.append(0, 1, 64)
        assert len(b) == 1

    def test_extend_arrays(self):
        b = TraceBuilder()
        b.extend_arrays([1, 2], [10, 20], [64, 128])
        trace = b.build()
        assert len(trace) == 2
        assert trace[1] == (2, 20, 128, 0)

    def test_extend_arrays_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TraceBuilder().extend_arrays([1], [10, 20], [64])
