"""The 75-workload catalog (Table 4's nine categories).

Workload names are ``"<category>.<name>"`` (e.g. ``"ispec06.mcf"``).  Each
entry composes the primitives of :mod:`repro.workloads.generators` into the
access structure the paper attributes to that application class, with a
seed derived from the workload name so traces are reproducible.

``MEMORY_INTENSIVE`` lists the 42 high-MPKI workloads used for Figure 13's
line graph and for the multi-programmed mixes (Section 4.2).
"""

import zlib
from dataclasses import dataclass

from repro.workloads import generators as g
from repro.workloads.generators import GenContext


@dataclass(frozen=True)
class Workload:
    """One named synthetic workload."""

    name: str
    category: str
    intensity: str  # "high" | "medium" | "low"
    builder: callable
    mem_intensive: bool = False

    def seed(self):
        """Stable seed derived from the workload name."""
        return zlib.crc32(self.name.encode())

    def build(self, length, copy=0):
        """Generate a trace of roughly ``length`` memory operations.

        This is the one place a trace is generated.  ``copy`` numbers the
        copies of one workload in a multi-programmed mix: each copy draws
        from its own seed (``1009 * copy`` past the workload's), so copies
        are not lock-step identical.
        """
        ctx = GenContext(self.seed() + 1009 * copy, self.intensity)
        self.builder(ctx, length)
        return ctx.build()


def memoized_trace(memo, name, length, copy=0):
    """The trace ``memo`` holds under ``(name, length, copy)``, else a
    fresh :meth:`Workload.build` it then holds.  Every session, run and
    mix core gets its trace through here."""
    key = (name, length, copy)
    trace = memo.get(key)
    if trace is None:
        trace = memo[key] = WORKLOADS[name].build(length, copy)
    return trace


def _phases(*parts):
    """Compose phase builders: ``parts`` are (fraction, fn(ctx, n))."""
    total = sum(frac for frac, _ in parts)
    if not 0.99 <= total <= 1.01:
        raise ValueError(f"phase fractions must sum to 1, got {total}")

    def build(ctx, n):
        for frac, fn in parts:
            fn(ctx, max(1, int(n * frac)))

    return build


WORKLOADS = {}
CATEGORIES = (
    "Client",
    "Server",
    "HPC",
    "FSPEC06",
    "ISPEC06",
    "FSPEC17",
    "ISPEC17",
    "Cloud",
    "SYSmark",
)


def _add(category, name, builder, intensity="high", mem_intensive=False):
    full_name = f"{category.lower()}.{name}"
    if full_name in WORKLOADS:
        raise ValueError(f"duplicate workload {full_name}")
    WORKLOADS[full_name] = Workload(full_name, category, intensity, builder, mem_intensive)


# --------------------------------------------------------------------------- #
# Client (7): compression, codecs, interactive apps — mixed streams with
# back-references and block layouts; moderate intensity.
# --------------------------------------------------------------------------- #

_add("Client", "7zip-compress",
     _phases((0.7, lambda c, n: g.emit_backref_stream(c, n, backref_frac=0.35)),
             (0.3, lambda c, n: g.emit_streams(c, n, num_streams=2))),
     mem_intensive=True)
_add("Client", "7zip-decompress",
     _phases((0.8, lambda c, n: g.emit_backref_stream(c, n, backref_frac=0.2)),
             (0.2, lambda c, n: g.emit_streams(c, n, num_streams=2, write_frac=0.5))),
     mem_intensive=True)
_add("Client", "vp9-encode",
     _phases((0.6, lambda c, n: g.emit_blocks2d(c, n, block_lines=8)),
             (0.4, lambda c, n: g.emit_streams(c, n, num_streams=3))),
     mem_intensive=False)
_add("Client", "vp9-decode",
     _phases((0.7, lambda c, n: g.emit_blocks2d(c, n, block_lines=6)),
             (0.3, lambda c, n: g.emit_backref_stream(c, n, backref_frac=0.15))),
     intensity="medium")
_add("Client", "photoview",
     _phases((0.6, lambda c, n: g.emit_blocks2d(c, n, block_lines=12, reorder=False)),
             (0.4, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=6, density=0.3))),
     intensity="medium")
_add("Client", "browser",
     _phases((0.5, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=12, density=0.15,
                                                       pc_variants=8)),
             (0.3, lambda c, n: g.emit_kv(c, n, hot_pages=256, pc_pool=32)),
             (0.2, lambda c, n: g.emit_random(c, n, pages=1024))),
     intensity="medium")
_add("Client", "office-mix",
     _phases((0.5, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=10, density=0.2,
                                                       pc_variants=6)),
             (0.5, lambda c, n: g.emit_backref_stream(c, n, backref_frac=0.1))),
     intensity="low")

# --------------------------------------------------------------------------- #
# Server (8): huge code footprints (TPC-C), transaction processing, big
# data on JVM — many trigger contexts, reordered layouts, scans.
# --------------------------------------------------------------------------- #

_add("Server", "tpcc-1",
     # Context count scales with trace length so trigger PCs recur a
     # realistic ~1-2 times regardless of run scale (the paper: ">4000
     # trigger PCs per kilo instructions" — only a large PHT holds them).
     _phases((0.7, lambda c, n: g.emit_code_heavy(
                 c, n, num_contexts=max(300, min(4000, n // 24)), density=0.12)),
             (0.3, lambda c, n: g.emit_kv(c, n, hot_pages=768, zipf_alpha=0.9,
                                          pc_pool=32))),
     mem_intensive=True)
_add("Server", "tpcc-2",
     _phases((0.6, lambda c, n: g.emit_code_heavy(
                 c, n, num_contexts=max(350, min(6000, n // 18)), density=0.1)),
             (0.4, lambda c, n: g.emit_kv(c, n, hot_pages=1024, zipf_alpha=0.8,
                                          pc_pool=32))),
     mem_intensive=True)
_add("Server", "specjbb",
     _phases((0.5, lambda c, n: g.emit_kv(c, n, hot_pages=512, record_lines=4,
                                          pc_pool=32)),
             (0.3, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=24, density=0.2,
                                                       pc_variants=8)),
             (0.2, lambda c, n: g.emit_streams(c, n, num_streams=2))),
     mem_intensive=True)
_add("Server", "jenterprise",
     _phases((0.5, lambda c, n: g.emit_code_heavy(
                 c, n, num_contexts=max(250, min(1500, n // 30)), density=0.15)),
             (0.5, lambda c, n: g.emit_kv(c, n, hot_pages=640, pc_pool=32))),
     intensity="medium")
_add("Server", "spark-pagerank",
     _phases((0.5, lambda c, n: g.emit_streams(c, n, num_streams=4)),
             (0.3, lambda c, n: g.emit_sparse_global(c, n, deltas=(0, 1, 10, 11, 24, 25))),
             (0.2, lambda c, n: g.emit_pointer_chase(c, n, working_set_pages=1024))),
     mem_intensive=True)
_add("Server", "spark-sql",
     _phases((0.6, lambda c, n: g.emit_streams(c, n, num_streams=6)),
             (0.4, lambda c, n: g.emit_kv(c, n, hot_pages=512, scan_frac=0.15))),
     mem_intensive=False)
_add("Server", "webserver",
     _phases((0.6, lambda c, n: g.emit_kv(c, n, hot_pages=384, zipf_alpha=1.3,
                                          pc_pool=32)),
             (0.4, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=16, density=0.12,
                                                       pc_variants=6))),
     intensity="medium")
_add("Server", "mailserver",
     _phases((0.5, lambda c, n: g.emit_kv(c, n, hot_pages=256)),
             (0.5, lambda c, n: g.emit_backref_stream(c, n, backref_frac=0.1))),
     intensity="low")

# --------------------------------------------------------------------------- #
# HPC (9): dense streaming, stencils, banded solvers — SPP's home turf,
# bandwidth-hungry (paper: DSPatch+SPP gains 26% on NPB).
# --------------------------------------------------------------------------- #

_add("HPC", "linpack",
     _phases((0.8, lambda c, n: g.emit_streams(c, n, num_streams=6, write_frac=0.25)),
             (0.2, lambda c, n: g.emit_strided(c, n, stride_lines=8))),
     mem_intensive=True)
_add("HPC", "npb-cg",
     _phases((0.5, lambda c, n: g.emit_streams(c, n, num_streams=4)),
             (0.5, lambda c, n: g.emit_sparse_global(c, n, deltas=(0, 1, 8, 9, 22, 23), reorder=True))),
     mem_intensive=True)
_add("HPC", "npb-ft",
     _phases((0.6, lambda c, n: g.emit_strided(c, n, stride_lines=16, pages=256)),
             (0.4, lambda c, n: g.emit_streams(c, n, num_streams=4))),
     mem_intensive=True)
_add("HPC", "npb-mg",
     _phases((0.6, lambda c, n: g.emit_stencil(c, n, arrays=3)),
             (0.4, lambda c, n: g.emit_strided(c, n, stride_lines=2))),
     mem_intensive=True)
_add("HPC", "npb-bt",
     _phases((0.7, lambda c, n: g.emit_stencil(c, n, arrays=4)),
             (0.3, lambda c, n: g.emit_streams(c, n, num_streams=5))),
     mem_intensive=True)
_add("HPC", "parsec-fluid",
     _phases((0.6, lambda c, n: g.emit_stencil(c, n, arrays=3)),
             (0.4, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=4, density=0.5,
                                                       reorder=False))),
     mem_intensive=False)
_add("HPC", "parsec-stream",
     _phases((1.0, lambda c, n: g.emit_streams(c, n, num_streams=8, write_frac=0.3)),),
     mem_intensive=True)
_add("HPC", "accel-lbm",
     _phases((0.8, lambda c, n: g.emit_streams(c, n, num_streams=7, write_frac=0.4)),
             (0.2, lambda c, n: g.emit_stencil(c, n, arrays=2))),
     mem_intensive=True)
_add("HPC", "mpi-halo",
     _phases((0.5, lambda c, n: g.emit_streams(c, n, num_streams=3)),
             (0.5, lambda c, n: g.emit_blocks2d(c, n, block_lines=16, reorder=False))),
     intensity="medium")

# --------------------------------------------------------------------------- #
# FSPEC06 (9): floating-point SPEC 2006 — streaming + strided dominate.
# --------------------------------------------------------------------------- #

_add("FSPEC06", "sphinx3",
     _phases((0.7, lambda c, n: g.emit_streams(c, n, num_streams=3)),
             (0.3, lambda c, n: g.emit_kv(c, n, hot_pages=256, record_lines=2))),
     mem_intensive=True)
_add("FSPEC06", "soplex",
     _phases((0.5, lambda c, n: g.emit_strided(c, n, stride_lines=3)),
             (0.5, lambda c, n: g.emit_sparse_global(c, n, deltas=(0, 1, 6, 7, 14, 15)))),
     mem_intensive=True)
_add("FSPEC06", "gemsfdtd",
     _phases((0.7, lambda c, n: g.emit_stencil(c, n, arrays=4)),
             (0.3, lambda c, n: g.emit_strided(c, n, stride_lines=32, pages=512))),
     mem_intensive=True)
_add("FSPEC06", "leslie3d",
     _phases((0.8, lambda c, n: g.emit_stencil(c, n, arrays=3)),
             (0.2, lambda c, n: g.emit_streams(c, n, num_streams=3))),
     mem_intensive=True)
_add("FSPEC06", "libquantum",
     _phases((1.0, lambda c, n: g.emit_streams(c, n, num_streams=1, pages_per_stream=512)),),
     mem_intensive=True)
_add("FSPEC06", "milc",
     _phases((0.6, lambda c, n: g.emit_streams(c, n, num_streams=4)),
             (0.4, lambda c, n: g.emit_strided(c, n, stride_lines=6))),
     mem_intensive=False)
_add("FSPEC06", "cactus",
     _phases((0.7, lambda c, n: g.emit_stencil(c, n, arrays=5)),
             (0.3, lambda c, n: g.emit_strided(c, n, stride_lines=4))),
     intensity="medium")
_add("FSPEC06", "zeusmp",
     _phases((0.6, lambda c, n: g.emit_stencil(c, n, arrays=3)),
             (0.4, lambda c, n: g.emit_streams(c, n, num_streams=2))),
     intensity="medium")
_add("FSPEC06", "bwaves",
     _phases((0.8, lambda c, n: g.emit_streams(c, n, num_streams=5, write_frac=0.2)),
             (0.2, lambda c, n: g.emit_strided(c, n, stride_lines=2))),
     mem_intensive=True)

# --------------------------------------------------------------------------- #
# ISPEC06 (8): integer SPEC 2006 — pointer chasing (mcf), mixed phases
# (gcc), irregular containers (omnetpp).
# --------------------------------------------------------------------------- #

_add("ISPEC06", "gcc",
     _phases((0.4, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=20, density=0.15)),
             (0.3, lambda c, n: g.emit_backref_stream(c, n, backref_frac=0.2)),
             (0.3, lambda c, n: g.emit_kv(c, n, hot_pages=384))),
     mem_intensive=True)
_add("ISPEC06", "mcf",
     _phases((0.5, lambda c, n: g.emit_pointer_chase(c, n, working_set_pages=768,
                                                     spatial_hint=0.6)),
             (0.3, lambda c, n: g.emit_streams(c, n, num_streams=2,
                                               pages_per_stream=256)),
             (0.2, lambda c, n: g.emit_sparse_global(c, n, deltas=(0, 1, 8, 17)))),
     mem_intensive=True)
_add("ISPEC06", "omnetpp",
     _phases((0.6, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=16, density=0.12,
                                                       layout_zipf=0.8)),
             (0.4, lambda c, n: g.emit_pointer_chase(c, n, working_set_pages=1024,
                                                     spatial_hint=0.3))),
     mem_intensive=True)
_add("ISPEC06", "astar",
     _phases((0.5, lambda c, n: g.emit_pointer_chase(c, n, working_set_pages=768,
                                                     spatial_hint=0.4)),
             (0.5, lambda c, n: g.emit_kv(c, n, hot_pages=256))),
     mem_intensive=False)
_add("ISPEC06", "bzip2",
     _phases((0.9, lambda c, n: g.emit_backref_stream(c, n, backref_frac=0.4)),
             (0.1, lambda c, n: g.emit_random(c, n, pages=512))),
     intensity="medium")
_add("ISPEC06", "hmmer",
     _phases((0.8, lambda c, n: g.emit_strided(c, n, stride_lines=1, pages=64)),
             (0.2, lambda c, n: g.emit_kv(c, n, hot_pages=128))),
     intensity="low")
_add("ISPEC06", "sjeng",
     _phases((0.6, lambda c, n: g.emit_kv(c, n, hot_pages=512, zipf_alpha=0.7)),
             (0.4, lambda c, n: g.emit_random(c, n, pages=2048))),
     intensity="low")
_add("ISPEC06", "xalancbmk06",
     _phases((0.7, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=14, density=0.18)),
             (0.3, lambda c, n: g.emit_pointer_chase(c, n, working_set_pages=512,
                                                     spatial_hint=0.4))),
     mem_intensive=True)

# --------------------------------------------------------------------------- #
# FSPEC17 (9): floating-point SPEC 2017.
# --------------------------------------------------------------------------- #

_add("FSPEC17", "lbm17",
     _phases((0.9, lambda c, n: g.emit_streams(c, n, num_streams=8, write_frac=0.45)),
             (0.1, lambda c, n: g.emit_stencil(c, n, arrays=2))),
     mem_intensive=True)
_add("FSPEC17", "cam4",
     _phases((0.6, lambda c, n: g.emit_stencil(c, n, arrays=4)),
             (0.4, lambda c, n: g.emit_strided(c, n, stride_lines=5))),
     mem_intensive=False)
_add("FSPEC17", "nab",
     _phases((0.5, lambda c, n: g.emit_streams(c, n, num_streams=3)),
             (0.5, lambda c, n: g.emit_sparse_global(c, n, deltas=(0, 1, 12, 13, 28, 29)))),
     intensity="medium")
_add("FSPEC17", "pop2",
     _phases((0.7, lambda c, n: g.emit_stencil(c, n, arrays=3)),
             (0.3, lambda c, n: g.emit_streams(c, n, num_streams=4))),
     mem_intensive=True)
_add("FSPEC17", "roms",
     _phases((0.8, lambda c, n: g.emit_stencil(c, n, arrays=4)),
             (0.2, lambda c, n: g.emit_strided(c, n, stride_lines=3))),
     mem_intensive=True)
_add("FSPEC17", "fotonik3d",
     _phases((0.8, lambda c, n: g.emit_streams(c, n, num_streams=6, write_frac=0.3)),
             (0.2, lambda c, n: g.emit_strided(c, n, stride_lines=16, pages=512))),
     mem_intensive=True)
_add("FSPEC17", "wrf",
     _phases((0.6, lambda c, n: g.emit_stencil(c, n, arrays=3)),
             (0.4, lambda c, n: g.emit_blocks2d(c, n, block_lines=10, reorder=False))),
     intensity="medium")
_add("FSPEC17", "cactubssn",
     _phases((0.7, lambda c, n: g.emit_stencil(c, n, arrays=5)),
             (0.3, lambda c, n: g.emit_streams(c, n, num_streams=3))),
     mem_intensive=True)
_add("FSPEC17", "namd",
     _phases((0.6, lambda c, n: g.emit_kv(c, n, hot_pages=96, record_lines=4)),
             (0.4, lambda c, n: g.emit_streams(c, n, num_streams=2))),
     intensity="low")

# --------------------------------------------------------------------------- #
# ISPEC17 (8): integer SPEC 2017 — the category where reordered spatial
# layouts make SPP lose to bit-pattern prefetching (Figure 4 vs 12).
# --------------------------------------------------------------------------- #

_add("ISPEC17", "omnetpp17",
     _phases((0.7, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=12, density=0.14,
                                                       layout_zipf=0.7)),
             (0.3, lambda c, n: g.emit_pointer_chase(c, n, working_set_pages=1024,
                                                     spatial_hint=0.4))),
     mem_intensive=True)
_add("ISPEC17", "xalancbmk17",
     _phases((0.8, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=10, density=0.2,
                                                       pc_variants=4)),
             (0.2, lambda c, n: g.emit_kv(c, n, hot_pages=256, pc_pool=32))),
     mem_intensive=True)
_add("ISPEC17", "leela",
     _phases((0.6, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=8, density=0.1,
                                                       trigger_jitter=True)),
             (0.4, lambda c, n: g.emit_kv(c, n, hot_pages=192, zipf_alpha=1.0))),
     intensity="medium")
_add("ISPEC17", "x264",
     _phases((0.7, lambda c, n: g.emit_blocks2d(c, n, block_lines=8)),
             (0.3, lambda c, n: g.emit_backref_stream(c, n, backref_frac=0.25))),
     intensity="medium")
_add("ISPEC17", "deepsjeng",
     _phases((0.6, lambda c, n: g.emit_kv(c, n, hot_pages=768, zipf_alpha=0.8)),
             (0.4, lambda c, n: g.emit_random(c, n, pages=2048))),
     intensity="medium")
_add("ISPEC17", "mcf17",
     _phases((0.6, lambda c, n: g.emit_pointer_chase(c, n, working_set_pages=2048,
                                                     spatial_hint=0.5)),
             (0.4, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=8, density=0.12))),
     mem_intensive=True)
_add("ISPEC17", "gcc17",
     _phases((0.5, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=24, density=0.15,
                                                       pc_variants=4)),
             (0.5, lambda c, n: g.emit_backref_stream(c, n, backref_frac=0.2))),
     mem_intensive=True)
_add("ISPEC17", "xz",
     _phases((0.8, lambda c, n: g.emit_backref_stream(c, n, backref_frac=0.5,
                                                      window_pages=64)),
             (0.2, lambda c, n: g.emit_streams(c, n, num_streams=2))),
     mem_intensive=True)

# --------------------------------------------------------------------------- #
# Cloud (9): big-data and NoSQL — recurring record layouts under heavy
# reordering; the paper's BigBench shows DSPatch+SPP gaining 20%.
# --------------------------------------------------------------------------- #

_add("Cloud", "bigbench",
     _phases((0.6, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=10, density=0.25,
                                                       layout_zipf=0.6, pc_variants=12)),
             (0.4, lambda c, n: g.emit_kv(c, n, hot_pages=1024, scan_frac=0.1,
                                          pc_pool=32))),
     mem_intensive=True)
_add("Cloud", "cassandra-read",
     _phases((0.7, lambda c, n: g.emit_kv(c, n, hot_pages=1024, record_lines=4,
                                          zipf_alpha=1.0, pc_pool=32)),
             (0.3, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=12, density=0.2,
                                                       pc_variants=8))),
     mem_intensive=True)
_add("Cloud", "cassandra-write",
     _phases((0.6, lambda c, n: g.emit_streams(c, n, num_streams=3, write_frac=0.6)),
             (0.4, lambda c, n: g.emit_kv(c, n, hot_pages=512, record_lines=3))),
     mem_intensive=False)
_add("Cloud", "hbase",
     _phases((0.5, lambda c, n: g.emit_kv(c, n, hot_pages=768, record_lines=2,
                                          pc_pool=32)),
             (0.5, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=16, density=0.18,
                                                       pc_variants=8))),
     mem_intensive=True)
_add("Cloud", "kmeans",
     _phases((0.8, lambda c, n: g.emit_streams(c, n, num_streams=5)),
             (0.2, lambda c, n: g.emit_strided(c, n, stride_lines=4))),
     mem_intensive=True)
_add("Cloud", "streaming",
     _phases((0.7, lambda c, n: g.emit_streams(c, n, num_streams=4, write_frac=0.3)),
             (0.3, lambda c, n: g.emit_kv(c, n, hot_pages=384, scan_frac=0.2))),
     mem_intensive=True)
_add("Cloud", "memcached",
     _phases((0.8, lambda c, n: g.emit_kv(c, n, hot_pages=2048, record_lines=2,
                                          zipf_alpha=1.2, pc_pool=32)),
             (0.2, lambda c, n: g.emit_random(c, n, pages=2048))),
     mem_intensive=True)
_add("Cloud", "nosql-scan",
     _phases((0.6, lambda c, n: g.emit_kv(c, n, hot_pages=512, scan_frac=0.4)),
             (0.4, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=8, density=0.3,
                                                       reorder=True))),
     mem_intensive=False)
_add("Cloud", "analytics",
     _phases((0.5, lambda c, n: g.emit_streams(c, n, num_streams=6)),
             (0.5, lambda c, n: g.emit_sparse_global(c, n, deltas=(0, 1, 12, 13, 26, 27)))),
     intensity="medium")

# --------------------------------------------------------------------------- #
# SYSmark (8): office productivity — recurring document/object layouts
# with reordering and jitter; the paper's SYSmark-excel gains 16%.
# --------------------------------------------------------------------------- #

_add("SYSmark", "excel",
     _phases((0.7, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=8, density=0.25,
                                                       trigger_jitter=True, pc_variants=6)),
             (0.3, lambda c, n: g.emit_streams(c, n, num_streams=2))),
     mem_intensive=True)
_add("SYSmark", "word",
     _phases((0.6, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=12, density=0.18,
                                                       pc_variants=6)),
             (0.4, lambda c, n: g.emit_backref_stream(c, n, backref_frac=0.15))),
     intensity="medium")
_add("SYSmark", "photoshop",
     _phases((0.6, lambda c, n: g.emit_blocks2d(c, n, block_lines=12)),
             (0.4, lambda c, n: g.emit_streams(c, n, num_streams=4))),
     mem_intensive=False)
_add("SYSmark", "sketchup",
     _phases((0.5, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=10, density=0.2,
                                                       trigger_jitter=True)),
             (0.5, lambda c, n: g.emit_stencil(c, n, arrays=2))),
     mem_intensive=True)
_add("SYSmark", "powerpoint",
     _phases((0.6, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=14, density=0.15,
                                                       pc_variants=6)),
             (0.4, lambda c, n: g.emit_kv(c, n, hot_pages=256, pc_pool=32))),
     intensity="medium")
_add("SYSmark", "outlook",
     _phases((0.5, lambda c, n: g.emit_kv(c, n, hot_pages=384, zipf_alpha=1.1,
                                          pc_pool=32)),
             (0.5, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=18, density=0.12,
                                                       pc_variants=8))),
     intensity="medium")
_add("SYSmark", "media-mix",
     _phases((0.5, lambda c, n: g.emit_blocks2d(c, n, block_lines=8)),
             (0.5, lambda c, n: g.emit_backref_stream(c, n, backref_frac=0.2))),
     intensity="medium")
_add("SYSmark", "browser-productivity",
     _phases((0.6, lambda c, n: g.emit_spatial_layouts(c, n, num_layouts=20, density=0.14,
                                                       layout_zipf=0.9, pc_variants=10)),
             (0.4, lambda c, n: g.emit_kv(c, n, hot_pages=512, pc_pool=32))),
     mem_intensive=True)


#: The 42 high-MPKI workloads (Section 4.2) — used for Figure 13 and the
#: multi-programmed mixes.
MEMORY_INTENSIVE = tuple(sorted(name for name, w in WORKLOADS.items() if w.mem_intensive))

_EXPECTED_TOTAL = 75
if len(WORKLOADS) != _EXPECTED_TOTAL:
    raise AssertionError(f"catalog has {len(WORKLOADS)} workloads, expected {_EXPECTED_TOTAL}")
if len(MEMORY_INTENSIVE) != 42:
    raise AssertionError(
        f"memory-intensive subset has {len(MEMORY_INTENSIVE)} workloads, expected 42"
    )


def workloads_in_category(category):
    """All workload names in ``category``, sorted."""
    if category not in CATEGORIES:
        raise ValueError(f"unknown category {category!r} (known: {', '.join(CATEGORIES)})")
    return sorted(name for name, w in WORKLOADS.items() if w.category == category)


def build_trace(name, length):
    """Generate the named workload's trace with ~``length`` memory ops."""
    try:
        workload = WORKLOADS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}") from None
    return workload.build(length)
