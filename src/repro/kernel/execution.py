"""KernelDomain/KernelExecution: the system driver's face of the compiled kernel.

This is the glue between the system driver and the generated-C twin of
the object model: :class:`KernelExecution` lays one core out as a
:class:`~repro.kernel.state.KernelState` — straight from the
``SystemConfig`` on a compiled run, or packed from built objects as the
tests' reference — holds its pointer table, and exposes the state
surface of :class:`repro.cpu.core.CoreExecution` that the warmup
callback reads (``mark_stats_start``, ``time``, ``ops``).  After the run
the driver reads each core's result inputs from the flat counters
(:meth:`KernelExecution.counters`).  The flat state is never translated
back into objects: tests read a twin's state in flat form.

Every core of a run shares one :class:`KernelDomain` (the LLC + DRAM +
bandwidth-monitor working state), and :meth:`KernelDomain.interleave`
schedules the cores: it is the compiled twin of
:func:`repro.cpu.core.interleave_two_level`, with the same signature and
contract, running the whole schedule in one ``ksched`` call.  The C
calls Python where the object model runs it: a scheme without a C twin
trains and takes its usefulness notes through callbacks, the warmup
checkpoints call ``on_stop``, and a callback re-lays BOP's pending-fill
ring or a pollution log that lacks room for the next op.
``KernelExecution`` has no per-batch entry point.
"""

import ctypes

from repro.cpu.core import CoreExecution, _fire_met_checkpoints
from repro.kernel.layout import CALLBACK_NAMES, CF64, CI64, HITS, PTR, RC_DONE, SI64
from repro.kernel.state import KernelState, SharedState


#: Memoized probe result: ``(ok, kind, reason)`` where ``kind`` is
#: ``"toolchain"`` (no compiler — the expected, quiet degradation) or
#: ``"build"`` (compiler present but codegen/compile/load failed — a real
#: bug that callers must surface, never swallow).
_probe = None


def _probe_kernel():
    global _probe
    if _probe is not None:
        return _probe
    try:
        from repro.kernel import cbuild
    except Exception as exc:  # import error in the kernel package itself
        _probe = (False, "build", f"kernel modules failed to import: {exc}")
        return _probe
    if not cbuild.toolchain_available():
        _probe = (False, "toolchain", "no C compiler on PATH")
        return _probe
    try:
        cbuild.load_kernel()
    except Exception as exc:
        _probe = (False, "build", f"{type(exc).__name__}: {exc}")
        return _probe
    _probe = (True, None, None)
    return _probe


def kernel_available():
    """True when the compiled kernel is built and loadable.

    This eagerly builds the kernel (memoized per process), so a broken
    codegen or compile reports as a *build* failure via
    :func:`kernel_unavailable_reason` instead of masquerading as a
    missing toolchain.
    """
    return _probe_kernel()[0]


def kernel_unavailable_reason():
    """``(kind, reason)`` when the compiled kernel is unavailable, else None.

    ``kind`` is ``"toolchain"`` — no C compiler, the legitimate quiet
    fallback — or ``"build"`` — the toolchain is present but the kernel
    failed to generate, compile or load, which is a bug the caller must
    report (and a hard error under an explicit ``--kernel compiled``).
    """
    ok, kind, reason = _probe_kernel()
    return None if ok else (kind, reason)


#: Shared slots zeroed at the warmup boundary (``DramModel.reset_stats``).
_DRAM_RESET_SLOTS = ("dram_reads", "dram_writes", *(f"mon_bucket{i}" for i in range(4)))
#: Per-core slots zeroed at the warmup boundary (mirrors
#: ``MemoryHierarchy.reset_stats``: the L2's misses and the prefetch
#: counters; plus the pollution logs, which ``PollutionCollector``
#: clears on the boundary's ``RESET`` events).
_CORE_RESET_SLOTS = (
    "l2_demand_misses",
    *(name for name in CI64 if name.startswith("pf_")),
    "pl_dem_len",
    "pl_fill_len",
    "pl_vic_len",
)
_CAND_LEN = CI64["cand_len"]
_CAND_CAP = CI64["cand_cap"]
_FAILED = SI64["failed"]


class KernelDomain:
    """One LLC/DRAM domain in kernel form, shared by every core in a run.

    ``llc`` is the :class:`~repro.memory.cache.CacheConfig` of a fresh
    LLC, laid out empty with no object built, or, in tests, a built
    :class:`~repro.memory.cache.Cache` to pack; ``dram`` is the run's
    ``DramModel``.

    The domain is also its schemes' bandwidth source: the live monitor
    state sits here for the whole run, so bandwidth-aware schemes are
    built over the domain itself and :meth:`bucket` reads that state
    (the C monitor advances and halves the same slots ``krun`` updates).
    """

    def __init__(self, llc, dram):
        from repro.kernel import cbuild

        self.shared_state = SharedState(llc, dram)
        self._lib = cbuild.load_kernel()
        self._si = self.shared_state.si64.ctypes.data
        self._sf = self.shared_state.sf64.ctypes.data

    def bucket(self, cycle):
        return self._lib.kbucket(self._si, self._sf, int(cycle))

    def reset_dram_stats(self, cycle):
        """The warmup-boundary ``DramModel.reset_stats``, on the live state."""
        si = self.shared_state.si64
        for name in _DRAM_RESET_SLOTS:
            si[SI64[name]] = 0
        si[SI64["dram_stats_start"]] = int(cycle)

    def dram_counters(self):
        """The run's :class:`~repro.memory.dram.DramCounters`, from the
        live state."""
        return self.shared_state.dram_counters()

    def interleave(self, executions, stop_ops=None, on_stop=None):
        """:func:`repro.cpu.core.interleave_two_level` for this domain's cores.

        ``executions`` are the domain's :class:`KernelExecution` objects;
        ``stop_ops``/``on_stop`` follow the scheduler's warmup-checkpoint
        contract exactly (``on_stop(idx)`` fires once per core, before any
        further op, and before the first op for a checkpoint met at
        entry).  The execution order is the object scheduler's, op for op
        (pinned by ``tests/test_mp_interleave.py``).  One ``ksched`` call
        runs the schedule.  An exception in a callback (a scheme's
        ``train`` or note hook, ``on_stop``) stops it: no further
        callback runs, and the exception is raised here.
        """
        from repro.kernel.cbuild import STOP_FN

        pending = _fire_met_checkpoints(executions, stop_ops, on_stop)
        raised = []
        si = self.shared_state.si64

        def guard(fn):
            # No exception may unwind through the C frames: one (an
            # interrupt too) is kept, stops the run, and is raised below.
            def callback(*args):
                try:
                    fn(*args)
                except BaseException as exc:
                    raised.append(exc)
                    si[_FAILED] = 1

            return callback

        # The callbacks live for this call only, held by this frame: a
        # finished run leaves no reference cycle for the (paused) cyclic
        # GC, which would keep every array of the run alive.
        callbacks = [kex.callbacks(guard) for kex in executions]  # noqa: F841
        stop_callback = STOP_FN() if on_stop is None else STOP_FN(guard(on_stop))
        n = len(executions)
        tables = (ctypes.c_void_p * n)(*(ctypes.addressof(kex.table) for kex in executions))
        stop = (ctypes.c_longlong * n)(*(-1 if t is None else t for t in pending))
        if self._lib.ksched(tables, n, stop, stop_callback) != RC_DONE:
            raise raised.pop()


class KernelExecution:
    """One core of a compiled run, in place of its ``CoreExecution``.

    ``source`` is the run's ``SystemConfig`` — a fresh core laid out
    straight from it, with ``l2_prefetcher`` as its L2 scheme and no
    object built — or, in tests, a built ``CoreExecution`` (which owns
    the trace and the hierarchy objects) to pack.  Either way the flat
    state is the truth from :meth:`__init__` on: results come from
    :meth:`counters`, and a packed core's objects stay as they were at
    the pack.  ``time``/``ops``/``mark_stats_start`` match
    ``CoreExecution``; running ops is :meth:`KernelDomain.interleave`'s
    job.  With ``record_pollution`` the
    kernel records the pollution logs, read back with the counters.
    """

    def __init__(self, source, trace, domain, record_pollution=False, l2_prefetcher=None):
        if isinstance(source, CoreExecution):
            l2_pf = source.hierarchy.l2_prefetcher
            self.state = KernelState(source, trace, domain.shared_state, record_pollution)
        else:
            l2_pf = l2_prefetcher
            self.state = KernelState.from_config(
                source, l2_pf, trace, domain.shared_state, record_pollution
            )
        self.l2_prefetcher = l2_pf
        #: The pointer table ``krun`` binds: the state's arrays, then the
        #: callbacks.  ``ksched`` holds its address for the whole run, so
        #: it is allocated once and only ever updated in place.
        self.table = (ctypes.c_void_p * len(PTR))()
        # memoryviews read and write plain Python ints, bypassing numpy's
        # boxed scalars in the train callback
        self._mci = memoryview(self.state.ci64)
        #: The array object each table entry points at.
        self._pointed = {}
        self._point_table()
        self._stats_floor = None

    def _point_table(self):
        """Enter in the pointer table each of the state's arrays that is
        not there yet: all of them at the start, and after a growth the
        ones it re-laid."""
        pointed = self._pointed
        for name, arr in self.state.array_map().items():
            if pointed.get(name) is not arr:
                pointed[name] = arr
                self.table[PTR[name]] = arr.ctypes.data
        self._mcand_line = memoryview(self.state.cand_line)
        self._mcand_lp = memoryview(self.state.cand_lp)

    # --------------------------------------------------------- callbacks

    def callbacks(self, guard):
        """This core's ``train``, ``note`` and ``grow`` callbacks, each
        ``guard``-ed, entered in its pointer table for one ``ksched``
        call; the caller holds them until the call returns."""
        from repro.kernel.cbuild import GROW_FN, NOTE_FN, TRAIN_FN

        callbacks = (
            TRAIN_FN(guard(self._train)),
            NOTE_FN(guard(self._note)),
            GROW_FN(guard(self._grow)),
        )
        for name, callback in zip(CALLBACK_NAMES, callbacks):
            # from_buffer, not ctypes.cast: cast files the callback in its
            # own _objects, a reference cycle
            self.table[PTR[name]] = ctypes.c_void_p.from_buffer(callback).value
        return callbacks

    def _train(self, cycle, pc, addr, hit):
        """The L2 scheme trains on one below-L1 lookup; its candidates go
        into the candidate buffers (``cand_len`` is 0 on entry), grown
        when they do not fit."""
        cands = self.l2_prefetcher.train(cycle, pc, addr, hit)
        if not cands:
            return
        cands = cands if isinstance(cands, (list, tuple)) else list(cands)
        n = len(cands)
        if n > self._mci[_CAND_CAP]:
            self._relay(self.state.grow_candidates, n)
        cand_line, cand_lp = self._mcand_line, self._mcand_lp
        for i, cand in enumerate(cands):
            cand_line[i] = cand.line_addr
            cand_lp[i] = 1 if cand.low_priority else 0
        self._mci[_CAND_LEN] = n

    def _note(self, useful, cycle, line):
        """A usefulness note for the L2 scheme."""
        if useful:
            self.l2_prefetcher.note_useful_prefetch(cycle, line)
        else:
            self.l2_prefetcher.note_useless_prefetch(cycle, line)

    def _grow(self):
        """Room for the next op (see :meth:`KernelState.grow`)."""
        self._relay(self.state.grow)

    def _relay(self, grow, *args):
        """Run ``grow``, a state method that re-lays arrays, and re-point
        the table even if it raised: ``krun`` re-binds from it."""
        try:
            grow(*args)
        finally:
            self._point_table()

    # ----------------------------------------------------- CoreExecution API

    @property
    def time(self):
        return float(self.state.cf64[CF64["retire"]])

    @property
    def ops(self):
        return int(self.state.ci64[CI64["pos"]])

    def mark_stats_start(self):
        """Set the measured-region floor from the live working state."""
        ci = self.state.ci64
        self._stats_floor = (int(ci[CI64["instr"]]), self.time, tuple(ci[HITS].tolist()))

    # ------------------------------------------------- warmup-boundary resets

    def reset_hierarchy_stats(self):
        """The warmup-boundary ``MemoryHierarchy.reset_stats``, on the live state."""
        ci = self.state.ci64
        for name in _CORE_RESET_SLOTS:
            ci[CI64[name]] = 0

    # ------------------------------------------------------------- results

    def counters(self):
        """This core's result inputs, from the live state:
        ``(CoreStats, PrefetchStats, L2 demand misses, pollution logs)``,
        the stats measured from the warmup boundary — what the object path
        reads from its execution and hierarchy."""
        return self.state.core_counters(self._stats_floor)
