"""Tests for the text trace interchange format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.trace import FLAG_DEP, FLAG_WRITE, Trace
from repro.cpu.trace_io import TraceFormatError, load_text, save_text
from repro.workloads.catalog import CATEGORIES, build_trace, workloads_in_category


def make_trace(records):
    gaps, pcs, addrs, flags = zip(*records) if records else ((), (), (), ())
    return Trace(
        np.array(gaps, dtype=np.int64),
        np.array(pcs, dtype=np.int64),
        np.array(addrs, dtype=np.int64),
        np.array(flags, dtype=np.int64),
    )


class TestRoundTrip:
    def test_simple(self, tmp_path):
        trace = make_trace(
            [
                (100, 0x400000, 0x12345040, 0),
                (63, 0x400004, 0x12345080, FLAG_WRITE),
                (5, 0x400008, 0x123450C0, FLAG_DEP),
                (0, 0x40000C, 0x12345100, FLAG_WRITE | FLAG_DEP),
            ]
        )
        path = tmp_path / "t.trace"
        save_text(trace, path)
        back = load_text(path)
        assert list(back) == list(trace)

    def test_empty_trace(self, tmp_path):
        trace = make_trace([])
        path = tmp_path / "empty.trace"
        save_text(trace, path)
        assert len(load_text(path)) == 0

    @settings(max_examples=25, deadline=None)
    @given(
        records=st.lists(
            st.tuples(
                st.integers(0, 10_000),
                st.integers(0, 2**48 - 1),
                st.integers(0, 2**48 - 1),
                st.integers(0, 3),
            ),
            max_size=50,
        )
    )
    def test_roundtrip_property(self, records, tmp_path_factory):
        trace = make_trace(records)
        path = tmp_path_factory.mktemp("traces") / "p.trace"
        save_text(trace, path)
        back = load_text(path)
        assert list(back) == list(trace)

    def test_generated_workload_roundtrips(self, tmp_path):
        trace = build_trace("ispec06.mcf", 500)
        path = tmp_path / "mcf.trace"
        save_text(trace, path)
        back = load_text(path)
        assert list(back) == list(trace)
        assert back.instructions == trace.instructions

    # The text file is the only on-disk form a trace has (the engine
    # rebuilds traces, it never stores them), so every generator
    # category's PC, address and flag ranges must survive it exactly.
    @pytest.mark.parametrize("category", CATEGORIES)
    def test_every_category_roundtrips_bitwise(self, tmp_path, category):
        trace = build_trace(workloads_in_category(category)[0], 400)
        path = tmp_path / "w.trace"
        save_text(trace, path)
        back = load_text(path)
        for column in ("gaps", "pcs", "addrs", "flags"):
            mine, theirs = getattr(back, column), getattr(trace, column)
            assert mine.dtype == theirs.dtype
            assert mine.tobytes() == theirs.tobytes()

    def test_rebased_mix_core_roundtrips(self, tmp_path):
        """A mix's last core runs 3 TiB up the address space."""
        from repro.workloads.mixes import CORE_ADDRESS_STRIDE, build_mix_traces

        trace = build_mix_traces(["ispec06.mcf"] * 4, 300)[-1]
        assert int(trace.addrs.min()) >= 3 * CORE_ADDRESS_STRIDE
        path = tmp_path / "core3.trace"
        save_text(trace, path)
        assert list(load_text(path)) == list(trace)


class TestFlagCombinations:
    """Explicit coverage of every W/D flag combination in both directions."""

    @pytest.mark.parametrize(
        "flags,text",
        [
            (0, "0"),
            (FLAG_WRITE, "W"),
            (FLAG_DEP, "D"),
            (FLAG_WRITE | FLAG_DEP, "WD"),
        ],
    )
    def test_flag_encoding_round_trip(self, tmp_path, flags, text):
        trace = make_trace([(7, 0x400, 0x1000, flags)])
        path = tmp_path / "one.trace"
        save_text(trace, path)
        content = path.read_text().splitlines()[-1]
        assert content.split()[-1] == text
        back = load_text(path)
        assert back[0] == (7, 0x400, 0x1000, flags)

    def test_dw_order_also_accepted(self, tmp_path):
        # The parser accepts flag letters in any order; the writer always
        # emits W before D.
        path = tmp_path / "dw.trace"
        path.write_text("# repro-trace v1\n3 0x10 0x40 DW\n")
        trace = load_text(path)
        assert trace[0] == (3, 0x10, 0x40, FLAG_WRITE | FLAG_DEP)

    def test_repeated_flags_idempotent(self, tmp_path):
        path = tmp_path / "ww.trace"
        path.write_text("# repro-trace v1\n3 0x10 0x40 WW\n")
        assert load_text(path)[0][3] == FLAG_WRITE


class TestErrors:
    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("10 0x1 0x2 0\n")
        with pytest.raises(TraceFormatError):
            load_text(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("# repro-trace v1\n10 0x1 0x2\n")
        with pytest.raises(TraceFormatError):
            load_text(path)

    def test_unknown_flag(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("# repro-trace v1\n10 0x1 0x2 Z\n")
        with pytest.raises(TraceFormatError):
            load_text(path)

    def test_non_numeric_gap(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("# repro-trace v1\nxx 0x1 0x2 0\n")
        with pytest.raises(TraceFormatError):
            load_text(path)

    def test_non_hex_pc(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("# repro-trace v1\n10 zz 0x2 0\n")
        with pytest.raises(TraceFormatError):
            load_text(path)

    def test_non_hex_addr(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("# repro-trace v1\n10 0x1 0xZZ W\n")
        with pytest.raises(TraceFormatError):
            load_text(path)

    def test_too_many_fields(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("# repro-trace v1\n10 0x1 0x2 0 extra\n")
        with pytest.raises(TraceFormatError):
            load_text(path)

    def test_error_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_text("# repro-trace v1\n1 0x1 0x40 0\n2 0x2 0x80 Q\n")
        with pytest.raises(TraceFormatError, match="line 3"):
            load_text(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("")
        with pytest.raises(TraceFormatError):
            load_text(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ok.trace"
        path.write_text("# repro-trace v1\n# a comment\n\n10 0x1 0x40 W\n")
        trace = load_text(path)
        assert len(trace) == 1
        assert trace[0] == (10, 0x1, 0x40, FLAG_WRITE)
