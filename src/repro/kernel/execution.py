"""KernelDomain/KernelExecution: the system driver's face of the compiled kernel.

This is the glue between the system driver and the generated-C twin of
the object model: :class:`KernelExecution` packs one core's freshly
built objects into a :class:`~repro.kernel.state.KernelState` and
exposes the state surface of :class:`repro.cpu.core.CoreExecution` that
the warmup callback reads (``mark_stats_start``, ``time``, ``ops``); it
writes everything back into the objects at the end so result assembly,
``flush_training`` and post-run inspection are unchanged.

Every core of a run shares one :class:`KernelDomain` (the LLC + DRAM +
bandwidth-monitor working state), and :meth:`KernelDomain.interleave`
schedules the cores: it is the compiled twin of
:func:`repro.cpu.core.interleave_two_level`, with the same signature and
contract, running the whole schedule in C (``ksched``) and returning to
Python only for training crossings, queued usefulness notes, warmup
checkpoints and growths of BOP's pending-fill ring or of the pollution
logs.  ``KernelExecution`` has no per-batch entry point.
"""

from repro.cpu.core import _fire_met_checkpoints
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


class KernelBandwidth:
    """Bandwidth signal that follows the state wherever it currently lives.

    Bandwidth-aware schemes hold this object and call ``bucket(cycle)``
    during training.  While a kernel run is active the live monitor state
    is in the kernel domain's working form, so queries route there; before
    attach and after release (post write-back — e.g. the end-of-run
    ``flush_training`` drain) they route to the DRAM object.
    """

    __slots__ = ("_dram", "_domain")

    def __init__(self, dram):
        self._dram = dram
        self._domain = None

    def attach(self, domain):
        self._domain = domain

    def release(self):
        self._domain = None

    def bucket(self, cycle):
        domain = self._domain
        if domain is not None:
            return domain.bucket(cycle)
        return self._dram.bucket(cycle)


class KernelDomain:
    """One LLC/DRAM domain in kernel form, shared by every core in a run."""

    def __init__(self, llc, dram):
        from repro.kernel.cbuild import CShared

        self.shared_state = SharedState(llc, dram)
        self.shared = CShared(self.shared_state)

    def bucket(self, cycle):
        return self.shared.bucket(cycle)

    def reset_dram_stats(self, cycle):
        """The warmup-boundary ``DramModel.reset_stats``, on the live state."""
        self.shared.reset_dram_stats(cycle)

    def interleave(self, executions, stop_ops=None, on_stop=None):
        """:func:`repro.cpu.core.interleave_two_level` for this domain's cores.

        ``executions`` are the domain's :class:`KernelExecution` objects;
        ``stop_ops``/``on_stop`` follow the scheduler's warmup-checkpoint
        contract exactly (``on_stop(idx)`` fires once per core, before any
        further op, and before the first op for a checkpoint met at
        entry).  The execution order is the object scheduler's, op for op
        (pinned by ``tests/test_mp_interleave.py``).
        """
        pending = _fire_met_checkpoints(executions, stop_ops, on_stop)
        self.shared.interleave([kex.runtime for kex in executions], pending, on_stop)

    def write_back(self, contents=True):
        """Restore the shared LLC/DRAM objects (call once, after the run).

        ``contents=False`` restores counters and DRAM/monitor state but
        not the LLC's resident lines — for callers that only assemble
        counter-based results before discarding the objects.
        """
        self.shared_state.write_back(contents)


class KernelExecution:
    """One core of a compiled run, in place of its ``CoreExecution``.

    Wraps an already-built ``CoreExecution`` (which owns the trace and the
    hierarchy objects); between :meth:`__init__` and :meth:`write_back`
    the packed working form is the truth and the wrapped objects are
    stale.  ``time``/``ops``/``mark_stats_start`` match
    ``CoreExecution``; running ops is :meth:`KernelDomain.interleave`'s
    job.  With ``record_pollution`` the kernel records the pollution
    logs, read back by :meth:`pollution_logs`.
    """

    def __init__(self, execution, trace, domain, record_pollution=False):
        from repro.kernel.cbuild import CRuntime

        self.execution = execution
        self.domain = domain
        l2_pf = execution.hierarchy.l2_prefetcher
        self.state = KernelState(execution, trace, domain.shared_state, record_pollution)
        self.runtime = CRuntime(
            self.state,
            domain.shared,
            train=None if l2_pf is None else l2_pf.train,
            note_useful=None if l2_pf is None else l2_pf.note_useful_prefetch,
            note_useless=None if l2_pf is None else l2_pf.note_useless_prefetch,
        )
        self._written_back = False

    # ----------------------------------------------------- CoreExecution API

    @property
    def time(self):
        return self.runtime.time

    @property
    def ops(self):
        return self.runtime.pos

    def mark_stats_start(self):
        """Set the measured-region floor from the live working state."""
        self.execution._stats_floor = self.runtime.snapshot()

    # ------------------------------------------------- warmup-boundary resets

    def reset_hierarchy_stats(self):
        """The warmup-boundary ``MemoryHierarchy.reset_stats``, on the live state."""
        self.runtime.reset_hierarchy_stats()

    def pollution_logs(self):
        """``(demand_log, prefetch_fill_log, pollution_events)`` of the run
        so far, as the object path's ``PollutionCollector`` views."""
        return self.state.pollution_logs()

    # --------------------------------------------------------------- teardown

    def write_back(self, contents=True):
        """Restore the core's objects from the flat state (idempotent).

        ``contents=False`` skips rebuilding cache line structures; every
        counter and execution scalar is still restored.
        """
        if self._written_back:
            return
        self.state.write_back(contents)
        self._written_back = True
