"""KernelDomain/KernelExecution: the system driver's face of the compiled kernel.

This is the glue between the system driver and the generated-C twin of
the object model: :class:`KernelExecution` lays one core out as a
:class:`~repro.kernel.state.KernelState` — straight from the
``SystemConfig`` on a compiled run, or packed from built objects as the
tests' reference — and exposes the state surface of
:class:`repro.cpu.core.CoreExecution` that the warmup callback reads
(``mark_stats_start``, ``time``, ``ops``).  After the run the driver
reads each core's result inputs from the flat counters
(:meth:`KernelExecution.counters`).  The flat state is never translated
back into objects: tests read a twin's state in flat form.

Every core of a run shares one :class:`KernelDomain` (the LLC + DRAM +
bandwidth-monitor working state), and :meth:`KernelDomain.interleave`
schedules the cores: it is the compiled twin of
:func:`repro.cpu.core.interleave_two_level`, with the same signature and
contract, running the whole schedule in C (``ksched``) and returning to
Python only for training crossings, queued usefulness notes, warmup
checkpoints and growths of BOP's pending-fill ring or of the pollution
logs.  ``KernelExecution`` has no per-batch entry point.
"""

from repro.cpu.core import CoreExecution, _fire_met_checkpoints
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


class KernelDomain:
    """One LLC/DRAM domain in kernel form, shared by every core in a run.

    ``llc`` is the :class:`~repro.memory.cache.CacheConfig` of a fresh
    LLC, laid out empty with no object built, or, in tests, a built
    :class:`~repro.memory.cache.Cache` to pack; ``dram`` is the run's
    ``DramModel``.

    The domain is also its schemes' bandwidth source: the live monitor
    state sits here for the whole run, so bandwidth-aware schemes are
    built over the domain itself and :meth:`bucket` reads that state.
    """

    def __init__(self, llc, dram):
        from repro.kernel.cbuild import CShared

        self.shared_state = SharedState(llc, dram)
        self.shared = CShared(self.shared_state)

    def bucket(self, cycle):
        return self.shared.bucket(cycle)

    def reset_dram_stats(self, cycle):
        """The warmup-boundary ``DramModel.reset_stats``, on the live state."""
        self.shared.reset_dram_stats(cycle)

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
        (pinned by ``tests/test_mp_interleave.py``).
        """
        pending = _fire_met_checkpoints(executions, stop_ops, on_stop)
        self.shared.interleave([kex.runtime for kex in executions], pending, on_stop)


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
        from repro.kernel.cbuild import CRuntime

        self.domain = domain
        if isinstance(source, CoreExecution):
            l2_pf = source.hierarchy.l2_prefetcher
            self.state = KernelState(source, trace, domain.shared_state, record_pollution)
        else:
            l2_pf = l2_prefetcher
            self.state = KernelState.from_config(
                source, l2_pf, trace, domain.shared_state, record_pollution
            )
        self.l2_prefetcher = l2_pf
        self.runtime = CRuntime(
            self.state,
            domain.shared,
            train=None if l2_pf is None else l2_pf.train,
            note_useful=None if l2_pf is None else l2_pf.note_useful_prefetch,
            note_useless=None if l2_pf is None else l2_pf.note_useless_prefetch,
        )
        self._stats_floor = None

    # ----------------------------------------------------- CoreExecution API

    @property
    def time(self):
        return self.runtime.time

    @property
    def ops(self):
        return self.runtime.pos

    def mark_stats_start(self):
        """Set the measured-region floor from the live working state."""
        self._stats_floor = self.runtime.snapshot()

    # ------------------------------------------------- warmup-boundary resets

    def reset_hierarchy_stats(self):
        """The warmup-boundary ``MemoryHierarchy.reset_stats``, on the live state."""
        self.runtime.reset_hierarchy_stats()

    # ------------------------------------------------------------- results

    def counters(self):
        """This core's result inputs, from the live state:
        ``(CoreStats, PrefetchStats, L2 demand misses, pollution logs)``,
        the stats measured from the warmup boundary — what the object path
        reads from its execution and hierarchy."""
        return self.state.core_counters(self._stats_floor)
