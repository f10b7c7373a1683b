"""Tests for the array-native trace-generation pipeline.

Covers the guarantees the vectorization must not break:

- **determinism** — every catalog workload builds byte-identically twice
  in-process and identically again in a fresh subprocess (the engine
  rebuilds traces instead of storing them, so every build must agree);
- **structure** — per-category MPKI/footprint invariants survive the
  switch from scalar to batched RNG draws;
- **builder** — ``TraceBuilder`` keeps bulk emissions as NumPy chunks
  (no per-element Python round-trip) and interleaves scalar appends in
  order;
- **flags** — ``Trace.flags`` is uint8 end-to-end.
"""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from repro.cpu.trace import FLAG_DEP, FLAG_WRITE, Trace, TraceBuilder
from repro.workloads.catalog import CATEGORIES, WORKLOADS, build_trace, workloads_in_category
from repro.workloads.generators import (
    INTENSITY_GAPS,
    GenContext,
    emit_backref_stream,
    emit_code_heavy,
    emit_kv,
    emit_pointer_chase,
    emit_sparse_global,
    emit_stencil,
)

LEN = 400


def trace_sha(trace):
    h = hashlib.sha256()
    for arr in (trace.gaps, trace.pcs, trace.addrs, trace.flags):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class TestDeterminism:
    def test_every_workload_builds_identically_twice(self):
        for name in WORKLOADS:
            assert trace_sha(build_trace(name, LEN)) == trace_sha(
                build_trace(name, LEN)
            ), name

    def test_every_workload_identical_in_subprocess(self):
        """Batched RNG draws must not depend on process state (hash seeds,
        import order): a fresh interpreter reproduces every trace."""
        script = (
            "import hashlib, json, numpy as np\n"
            "from repro.workloads.catalog import WORKLOADS\n"
            "out = {}\n"
            f"for name in sorted(WORKLOADS):\n"
            f"    t = WORKLOADS[name].build({LEN})\n"
            "    h = hashlib.sha256()\n"
            "    for arr in (t.gaps, t.pcs, t.addrs, t.flags):\n"
            "        h.update(np.ascontiguousarray(arr).tobytes())\n"
            "    out[name] = h.hexdigest()\n"
            "print(json.dumps(out))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        )
        remote = json.loads(proc.stdout)
        local = {name: trace_sha(build_trace(name, LEN)) for name in WORKLOADS}
        assert remote == local

    def test_emitters_do_not_share_hidden_state(self):
        """Two contexts with the same seed replay identical streams."""
        for emitter in (emit_stencil, emit_sparse_global, emit_backref_stream):
            a, b = GenContext(11), GenContext(11)
            emitter(a, 600)
            emitter(b, 600)
            assert trace_sha(a.build()) == trace_sha(b.build()), emitter.__name__


class TestStructuralInvariants:
    def test_requested_length_honored(self):
        """Vectorized chunk generation trims to the requested op count."""
        for name in WORKLOADS:
            n = len(build_trace(name, LEN))
            # phase fractions round per part; stay within one part of n
            assert 0.95 * LEN <= n <= 1.05 * LEN, (name, n)

    @pytest.mark.parametrize("category", CATEGORIES)
    def test_category_mpki_reflects_intensity(self, category):
        """Mean instruction gap stays inside the workload's intensity band
        — the MPKI knob the figures rely on survives batched gap draws."""
        for name in workloads_in_category(category):
            trace = build_trace(name, 1500)
            lo, hi = INTENSITY_GAPS[WORKLOADS[name].intensity]
            mean = float(trace.gaps.mean())
            assert lo <= mean <= hi, (name, mean)
            # Sanity on the derived metric itself.
            expected_mpki = 1000.0 / (0.5 * (lo + hi) + 1)
            assert trace.mpki_upper_bound() == pytest.approx(
                expected_mpki, rel=0.35
            ), name

    def test_footprint_bounded_by_allocated_pages(self):
        """Every generated address stays inside pages the context
        allocated — vectorized index arithmetic must not escape."""
        for name in ("hpc.linpack", "cloud.memcached", "ispec06.mcf", "server.tpcc-1"):
            trace = build_trace(name, 2000)
            pages = np.unique(trace.addrs >> 12)
            assert int(pages.min()) >= 0x100, name  # low pages stay unused
            # Footprint is bounded: far fewer distinct pages than ops.
            assert pages.size < len(trace), name

    def test_flag_bits_are_only_write_and_dep(self):
        for name in ("ispec06.mcf", "fspec17.lbm17", "cloud.cassandra-write"):
            trace = build_trace(name, 2000)
            assert trace.flags.dtype == np.uint8, name
            assert not (trace.flags & ~np.uint8(FLAG_WRITE | FLAG_DEP)).any(), name

    def test_writes_present_where_write_frac_positive(self):
        trace = build_trace("fspec17.lbm17", 2000)  # write_frac=0.45 streams
        write_frac = float((trace.flags & FLAG_WRITE).astype(bool).mean())
        assert 0.2 < write_frac < 0.7

    def test_pointer_chase_field_offsets_stay_in_slab(self):
        ctx = GenContext(3)
        emit_pointer_chase(ctx, 1200, working_set_pages=64, spatial_hint=0.5)
        trace = ctx.build()
        lines = trace.addrs >> 6
        deps = (trace.flags & FLAG_DEP) != 0
        assert deps.any() and not deps.all()
        # Node headers are 8-line aligned; fields land at +2/+4 within.
        assert (lines[deps] % 8 == 0).all()
        offsets = lines[~deps] % 8
        assert set(np.unique(offsets)) <= {2, 4}

    def test_code_heavy_pc_diversity_scales(self):
        a = GenContext(5)
        emit_code_heavy(a, 2000, num_contexts=100)
        b = GenContext(5)
        emit_code_heavy(b, 2000, num_contexts=2000)
        few = np.unique(a.build().pcs).size
        many = np.unique(b.build().pcs).size
        assert many > few * 2

    def test_kv_scans_sweep_whole_pages(self):
        ctx = GenContext(9)
        emit_kv(ctx, 4000, hot_pages=64, scan_frac=0.3)
        trace = ctx.build()
        lines = trace.addrs >> 6
        per_page = {}
        for page, off in zip((lines >> 6).tolist(), (lines & 63).tolist()):
            per_page[page] = per_page.get(page, 0) | (1 << off)
        full = sum(1 for p in per_page.values() if p == (1 << 64) - 1)
        assert full > 3  # scans visited all 64 lines of several pages


class TestTraceBuilderChunks:
    def test_extend_arrays_keeps_numpy_chunks(self):
        b = TraceBuilder()
        gaps = np.arange(4, dtype=np.int64)
        b.extend_arrays(gaps, gaps + 10, (gaps + 1) * 64)
        chunk = b._chunks[0]
        assert chunk[0] is gaps  # no element-wise copy through int()
        assert chunk[3].dtype == np.uint8

    def test_scalar_appends_interleave_in_order(self):
        b = TraceBuilder()
        b.append(1, 100, 64)
        b.extend_arrays([2, 3], [200, 300], [128, 192])
        b.append(4, 400, 256, write=True)
        trace = b.build()
        assert len(b) == 4
        assert trace.gaps.tolist() == [1, 2, 3, 4]
        assert trace.pcs.tolist() == [100, 200, 300, 400]
        assert trace[3] == (4, 400, 256, FLAG_WRITE)

    def test_build_is_repeatable(self):
        b = TraceBuilder()
        b.extend_arrays([1], [2], [64])
        assert trace_sha(b.build()) == trace_sha(b.build())

    def test_empty_extend_is_noop(self):
        b = TraceBuilder()
        b.extend_arrays([], [], [])
        assert len(b) == 0 and len(b.build()) == 0

    def test_flags_column_accepted(self):
        b = TraceBuilder()
        b.extend_arrays([0, 0], [1, 1], [64, 128], flags=[FLAG_DEP, 0])
        trace = b.build()
        assert trace.flags.tolist() == [FLAG_DEP, 0]


class TestFlagsCompatibility:
    def test_flags_narrowed_to_uint8(self):
        trace = Trace([1], [2], [64], [FLAG_WRITE | FLAG_DEP])
        assert trace.flags.dtype == np.uint8

    def test_out_of_range_flags_rejected(self):
        with pytest.raises(ValueError):
            Trace([0], [1], [64], [4096])

    @pytest.mark.parametrize(
        "dtype",
        [np.int8, np.int16, np.int32, np.int64, np.uint16, np.uint32, np.uint64],
    )
    def test_integer_flag_columns_are_narrowed(self, dtype):
        """Any integer encoding whose values fit is accepted as uint8."""
        top = min(int(np.iinfo(dtype).max), int(np.iinfo(np.uint8).max))
        values = [0, FLAG_WRITE, FLAG_DEP, FLAG_WRITE | FLAG_DEP, top]
        trace = Trace([0] * 5, [1] * 5, [64] * 5, np.array(values, dtype=dtype))
        assert trace.flags.dtype == np.uint8
        assert trace.flags.tolist() == values

    @pytest.mark.parametrize(
        "dtype, value",
        [
            (np.int8, -1),
            (np.int64, -1),
            (np.int16, 256),
            (np.uint16, 256),
            (np.uint64, 2**63),
        ],
    )
    def test_values_outside_uint8_are_rejected_not_wrapped(self, dtype, value):
        with pytest.raises(ValueError, match="uint8"):
            Trace([0, 0], [1, 1], [64, 128], np.array([0, value], dtype=dtype))
