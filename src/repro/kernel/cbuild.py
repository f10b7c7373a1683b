"""Build and drive the compiled kernel twin.

The C source from :mod:`repro.kernel.cgen` is compiled once per source
digest into a shared library under ``<cache_dir>/ckernel/`` (atomic
rename, so concurrent workers race benignly) and loaded with ctypes.
``CShared`` (one per LLC/DRAM domain) schedules the domain's cores and
``CRuntime`` (one per core) holds a core's pointer table and serves its
crossings; :mod:`repro.kernel.execution` drives both.

The crossing protocol: :meth:`CShared.interleave` calls ``ksched``,
which runs the cores in C and returns to Python only when every core is
done, or with the core in ``*who`` needing Python:

- ``RC_TRAIN``: the core is suspended mid-op with one or more training
  records (cycle, pc, addr, hit) appended to ``train_buf``.
  :meth:`CRuntime.resume` first drains the queued usefulness notes
  (keeping every scheme-visible event in object-path order), then feeds
  the records to ``scheme.train`` in arrival order and writes the *last*
  record's candidates into the ``cand_line``/``cand_lp`` arrays (grown on
  demand, in place in the pointer table ``ksched`` holds).  The next
  ``ksched`` call resumes that core mid-op from the saved context.
- ``RC_YIELD``: the core stopped between ops with notes queued or at its
  warmup checkpoint.  ``resume`` drains the notes; at the checkpoint the
  driver's ``on_stop`` runs before any further op.
- ``RC_GROW``: the core stopped between ops because BOP's pending-fill
  ring or one of the pollution logs (both unbounded in the spec) lacks
  room for the next op.  ``resume`` re-lays what is short at a larger
  capacity, copying every entry, and updates the pointer table in
  place; the schedule then continues unchanged.

The kernel may batch a record only when its candidates are not consumed
by its own access — every current scheme's candidates are, so the kernel
flushes at depth 1; the record-buffer ABI is what lets a future
fire-and-forget scheme amortize the boundary.  Schemes with a compiled
twin (``scheme_kind`` > 0) never cross and never queue notes, so their
runs return only at warmup checkpoints, ring or log growths and the
end.  Nor are notes queued for a crossing scheme whose note hooks are
``Prefetcher``'s inherited no-ops (slot ``l2pf_notes``): nothing would
read them.

The build cache under ``<cache_dir>/ckernel/`` is keyed by a digest of
the emitted C *and* the generator source, the compile flags and the
compiler — editing :mod:`repro.kernel.cgen` can never load a stale
``.so``.  Failures past the toolchain probe raise
:class:`KernelBuildError` so callers can tell "no compiler" from "the
kernel is broken".
"""

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile


from repro.kernel import layout
from repro.kernel.layout import CF64, CI64, PTR, SF64, SI64

_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")

_lib = None


class KernelBuildError(RuntimeError):
    """A toolchain exists but generating/compiling/loading the kernel failed.

    Distinct from the plain ``RuntimeError`` raised when no compiler is on
    PATH: a build error means the kernel itself is broken and must never be
    silently degraded to the object path.
    """


def _reset_for_tests():
    """Drop the in-process library memo so the next load re-resolves."""
    global _lib
    _lib = None


def _compiler():
    for cc in ("cc", "gcc", "clang"):
        path = shutil.which(cc)
        if path:
            return path
    return None


def toolchain_available():
    """True when a C compiler is on PATH (the ``auto`` gate)."""
    return _compiler() is not None


def _build_dir():
    from repro.engine.config import current_config

    # The kernel binary is a build artifact keyed by source digest, not a
    # simulation result, so it lives under the cache root even when the
    # result cache itself is disabled.
    return current_config().cache_dir / "ckernel"


def _build_digest(source, cc):
    """Cache key for the built artifact.

    Covers the emitted C, the generator module's own source, the compile
    flags and the compiler path — any edit to :mod:`repro.kernel.cgen`
    (including ones that only change how constants are derived), a flag
    change or a compiler switch forces a rebuild instead of loading a
    stale ``.so`` whose bytes happen to sit at the old path.
    """
    from repro.kernel import cgen

    h = hashlib.sha256()
    h.update(source.encode())
    try:
        with open(cgen.__file__, "rb") as fh:
            h.update(fh.read())
    except OSError:
        pass
    h.update(repr(_CFLAGS).encode())
    h.update((cc or "").encode())
    return h.hexdigest()[:16]


def artifact_path():
    """Path the current generator output resolves to (test hook)."""
    from repro.kernel import cgen

    source = cgen.generate_source()
    return _build_dir() / f"kernel-{_build_digest(source, _compiler())}.so"


def load_kernel():
    """Compile (if needed) and load the kernel library (memoized)."""
    global _lib
    if _lib is not None:
        return _lib
    from repro.kernel import cgen

    cc = _compiler()
    try:
        source = cgen.generate_source()
    except Exception as exc:
        raise KernelBuildError(f"kernel codegen failed: {exc}") from exc
    digest = _build_digest(source, cc)
    build_dir = _build_dir()
    so_path = build_dir / f"kernel-{digest}.so"
    if not so_path.exists():
        if cc is None:
            raise RuntimeError("no C compiler available to build the kernel")
        build_dir.mkdir(parents=True, exist_ok=True)
        fd, c_path = tempfile.mkstemp(suffix=".c", dir=str(build_dir))
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(source)
            fd2, tmp_so = tempfile.mkstemp(suffix=".so", dir=str(build_dir))
            os.close(fd2)
            try:
                proc = subprocess.run(
                    [cc, *_CFLAGS, "-o", tmp_so, c_path],
                    capture_output=True,
                    text=True,
                )
                if proc.returncode != 0:
                    raise KernelBuildError(
                        f"kernel compilation failed:\n{proc.stderr}"
                    )
                os.replace(tmp_so, so_path)
            except BaseException:
                if os.path.exists(tmp_so):
                    os.unlink(tmp_so)
                raise
        finally:
            if os.path.exists(c_path):
                os.unlink(c_path)
    try:
        lib = ctypes.CDLL(str(so_path))
        lib.ksched.argtypes = [ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
        lib.ksched.restype = ctypes.c_long
        lib.kbucket.argtypes = [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_longlong]
        lib.kbucket.restype = ctypes.c_long
    except (OSError, AttributeError) as exc:
        raise KernelBuildError(f"kernel library failed to load: {exc}") from exc
    _lib = lib
    return _lib


class CShared:
    """Shared LLC/DRAM domain, compiled form.

    The compiled kernel mutates the shared flat arrays in place, and
    ``bucket`` queries route to the C monitor (which advances/halves the
    same state ``krun`` updates).  :meth:`interleave` schedules the
    domain's cores in C.
    """

    def __init__(self, shared_state):
        self.state = shared_state
        self._lib = load_kernel()
        self._si = shared_state.si64.ctypes.data_as(ctypes.c_void_p)
        self._sf = shared_state.sf64.ctypes.data_as(ctypes.c_void_p)

    def bucket(self, cycle):
        return int(self._lib.kbucket(self._si, self._sf, int(cycle)))

    def interleave(self, runtimes, pending, on_stop):
        """Run ``ksched`` over ``runtimes`` until every core is done.

        ``pending[i]`` is core ``i``'s warmup checkpoint in ops, or
        ``None`` when it has none left.  Each ``ksched`` return is served
        here: the core's :meth:`CRuntime.resume` drains its notes and
        training records, and a core that stopped at its checkpoint fires
        ``on_stop`` before the next ``ksched`` call runs another op.
        """
        n = len(runtimes)
        tables = (ctypes.c_void_p * n)(*(ctypes.addressof(rt.table) for rt in runtimes))
        stop = (ctypes.c_longlong * n)(*(-1 if t is None else t for t in pending))
        who = ctypes.c_longlong(-1)
        who_ref = ctypes.byref(who)
        ksched = self._lib.ksched
        rc_done = layout.RC_DONE
        rc_yield = layout.RC_YIELD
        while True:
            rc = ksched(tables, n, stop, who_ref)
            if rc == rc_done:
                return
            idx = who.value
            runtime = runtimes[idx]
            runtime.resume(rc)
            if rc == rc_yield and 0 <= stop[idx] <= runtime.pos:
                stop[idx] = -1
                if on_stop is not None:
                    on_stop(idx)

    def reset_dram_stats(self, cycle):
        si = self.state.si64
        for name in (
            "dram_reads",
            "dram_writes",
            "dram_row_hits",
            "dram_row_misses",
            "dram_busy_cycles",
            "dram_prefetches_dropped",
            "mon_total_cas",
            "mon_bucket0",
            "mon_bucket1",
            "mon_bucket2",
            "mon_bucket3",
        ):
            si[SI64[name]] = 0
        si[SI64["dram_stats_start"]] = int(cycle)


#: Per-core slots zeroed at the warmup boundary (mirrors
#: ``MemoryHierarchy.reset_stats``, plus the pollution logs, which
#: ``PollutionCollector`` clears on the boundary's ``RESET`` events).
_CORE_RESET_SLOTS = tuple(
    name
    for name in CI64
    if name.startswith(("l1_demand", "l1_prefetch_probe", "l1_useful", "l1_late",
                        "l1_useless", "l1_writebacks",
                        "l2_demand", "l2_prefetch_probe", "l2_useful", "l2_late",
                        "l2_useless", "l2_writebacks", "pf_"))
    or name.endswith(("_allocations", "_stall"))
    or name in ("pl_dem_len", "pl_fill_len", "pl_vic_len")
)
_LLC_RESET_SLOTS = tuple(
    name
    for name in SI64
    if name.startswith("llc_") and name != "llc_tick"
)
_I_NOTE_LEN = CI64["note_len"]
_I_TB_LEN = CI64["tb_len"]


class CRuntime:
    """One core's compiled kernel: its pointer table and its crossings."""

    def __init__(self, state, shared, train=None, note_useful=None, note_useless=None):
        self.state = state
        self.shared = shared
        self._ci = state.ci64
        self._cf = state.cf64
        has_l2pf = bool(self._ci[CI64["has_l2pf"]])
        self._train = train if has_l2pf else None
        self._note_useful = note_useful if has_l2pf else None
        self._note_useless = note_useless if has_l2pf else None
        #: The array pointers ``krun`` binds on every entry.  ``ksched``
        #: holds this table's address for the whole run, so it is
        #: allocated once and only ever updated in place.
        self.table = (ctypes.c_void_p * len(layout.PTR_NAMES))()
        self._rebuild_table()

    def _rebuild_table(self):
        amap = self.state.array_map()
        self._arrays = amap  # hold references; the C side keeps raw pointers
        tbl = self.table
        for name, i in PTR.items():
            tbl[i] = amap[name].ctypes.data
        # memoryviews return plain Python ints, bypassing numpy's boxed
        # scalars in the per-crossing hot loop; rebuilt here because the
        # candidate/note buffers can be reallocated on growth.
        self._mci = memoryview(self._ci)
        self._mcand_line = memoryview(self.state.cand_line)
        self._mcand_lp = memoryview(self.state.cand_lp)
        self._mtb = memoryview(self.state.train_buf)

    # ------------------------------------------------------------ properties

    @property
    def pos(self):
        return int(self._ci[CI64["pos"]])

    @property
    def time(self):
        return float(self._cf[CF64["retire"]])

    def snapshot(self):
        ci = self._ci
        return (
            int(ci[CI64["instr"]]),
            float(self._cf[CF64["retire"]]),
            (
                int(ci[CI64["hit_l1"]]),
                int(ci[CI64["hit_l2"]]),
                int(ci[CI64["hit_llc"]]),
                int(ci[CI64["hit_dram"]]),
            ),
        )

    # -------------------------------------------------------------- crossings

    def resume(self, rc):
        """Serve one ``ksched`` return for this core.

        Drains the queued usefulness notes first, keeping every
        scheme-visible event in object-path order; on ``RC_TRAIN`` it
        then feeds the batched training records to the scheme in arrival
        order and installs the *final* record's candidates.  Only that
        one is installed because the kernel is suspended inside its
        access, and it defers a record past its own access only when the
        scheme's candidates are not consumed by it.  The next ``ksched``
        call re-enters ``krun`` mid-op.
        """
        mci = self._mci
        if mci[_I_NOTE_LEN]:
            self._drain_notes()
        if rc == layout.RC_GROW:
            self.state.grow()
            self._rebuild_table()
            return
        if rc != layout.RC_TRAIN:
            return
        train = self._train
        tb = self._mtb
        n = mci[_I_TB_LEN]
        cands = None
        for i in range(0, 4 * n, 4):
            cands = train(tb[i], tb[i + 1], tb[i + 2], bool(tb[i + 3]))
        mci[_I_TB_LEN] = 0
        self._put_candidates(cands)

    def _drain_notes(self):
        mci = self._mci
        n = mci[CI64["note_len"]]
        if n > mci[CI64["note_cap"]]:
            raise RuntimeError("kernel note queue overflow")
        vals = self.state.note_buf[: 3 * n].tolist()
        useful = self._note_useful
        useless = self._note_useless
        kind_useful = layout.NOTE_USEFUL
        for i in range(0, 3 * n, 3):
            if vals[i] == kind_useful:
                useful(vals[i + 1], vals[i + 2])
            else:
                useless(vals[i + 1], vals[i + 2])
        mci[CI64["note_len"]] = 0

    def _put_candidates(self, cands):
        mci = self._mci
        if not cands:
            mci[CI64["cand_len"]] = 0
            return
        cl = cands if isinstance(cands, (list, tuple)) else list(cands)
        n = len(cl)
        if n > mci[CI64["cand_cap"]]:
            self.state.grow_candidates(n)
            self._rebuild_table()
        cand_line = self._mcand_line
        cand_lp = self._mcand_lp
        for i, cand in enumerate(cl):
            cand_line[i] = cand.line_addr
            cand_lp[i] = 1 if cand.low_priority else 0
        mci[CI64["cand_len"]] = n
    # ----------------------------------------------------- boundary operations

    def reset_hierarchy_stats(self):
        ci = self._ci
        for name in _CORE_RESET_SLOTS:
            ci[CI64[name]] = 0
        si = self.shared.state.si64
        for name in _LLC_RESET_SLOTS:
            si[SI64[name]] = 0
