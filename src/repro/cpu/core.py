"""Analytic out-of-order core timing model.

This replaces the paper's in-house cycle-accurate simulator (Table 2:
4-wide OOO, 224-entry ROB) with a retirement-centric model that preserves
the three properties prefetcher evaluations hinge on:

1. **Bounded memory-level parallelism.** A memory operation can issue only
   once it has entered the ROB, i.e. no earlier than the retirement time of
   the instruction ``ROB_SIZE`` positions older.  Independent misses within
   one ROB window overlap; misses further apart serialize — exactly the
   mechanism that limits MLP in a real core.
2. **Dependent-load serialization.** A load flagged ``FLAG_DEP`` (pointer
   chase) additionally waits for the previous load's data.
3. **Retirement bandwidth.** Instructions retire at most ``width`` per
   cycle; a load blocks retirement until its data returns, so exposed miss
   latency directly lengthens execution.

IPC falls out as instructions / final retirement cycle.  Absolute numbers
differ from the paper's Skylake model; relative speed-ups (the paper's
reported metric) are what this model is built to preserve.

:meth:`CoreExecution.run_ops_until` is the simulator's one op body (every
single-core and multi-core run goes through it, and the compiled kernel
transliterates it); it is written allocation-free — the hierarchy returns
a plain ``(latency, level)`` tuple, per-level hits are integer counters
indexed by the hierarchy's level codes, and every per-op attribute lookup
is hoisted into a local.
"""

from bisect import insort
from collections import deque
from dataclasses import dataclass

from repro.cpu.trace import FLAG_DEP, FLAG_WRITE

_INF = float("inf")


@dataclass(frozen=True)
class CoreModel:
    """Static core parameters (Table 2)."""

    width: int = 4
    rob_size: int = 224

    def __post_init__(self):
        if self.width <= 0 or self.rob_size <= 0:
            raise ValueError("width and rob_size must be positive")


@dataclass
class CoreStats:
    """Results of executing one trace on one core.

    Per-level hits are plain integer fields (the hot loop increments a
    flat counter list, not a dict); :attr:`level_hits` provides the
    familiar dict view for reporting and tests.
    """

    instructions: int = 0
    memory_ops: int = 0
    cycles: float = 0.0
    l1_hits: int = 0
    l2_hits: int = 0
    llc_hits: int = 0
    dram_hits: int = 0

    @property
    def ipc(self):
        return self.instructions / self.cycles if self.cycles > 0 else 0.0

    @property
    def level_hits(self):
        """Dict view of the per-level hit counters (compatibility)."""
        return {
            "L1": self.l1_hits,
            "L2": self.l2_hits,
            "LLC": self.llc_hits,
            "DRAM": self.dram_hits,
        }


def _fuse_ops(trace):
    """One ``(gap, pc, addr, is_write, dep)`` tuple per op.

    A single list index + tuple unpack per op instead of four list
    indexes, with flag decoding hoisted out of the op loop into two
    vectorized array passes.
    """
    flags = trace.flags
    return list(
        zip(
            trace.gaps.tolist(),
            trace.pcs.tolist(),
            trace.addrs.tolist(),
            (flags & FLAG_WRITE).astype(bool).tolist(),
            (flags & FLAG_DEP).astype(bool).tolist(),
        )
    )


class CoreExecution:
    """Steppable execution of one trace against one memory hierarchy.

    :func:`interleave_two_level` schedules one or more of these by always
    advancing the one with the smallest current retirement time, so
    contention on the shared LLC/DRAM is resolved in global time order.
    """

    __slots__ = (
        "model",
        "hierarchy",
        "stats",
        "_trace",
        "_ops",
        "_pos",
        "_n",
        "_retire",
        "_instr",
        "_last_load_done",
        "_window",
        "_width",
        "_rob_size",
        "_retire_step",
        "_access",
        "_hits",
        "_stats_floor",
    )

    def __init__(self, model, trace, hierarchy):
        self.model = model
        self.hierarchy = hierarchy
        self.stats = CoreStats()
        self._trace = trace
        # Fused op tuples, built on the first run_ops_until: a compiled
        # run packs the trace arrays itself and never reads them.
        self._ops = None
        self._pos = 0
        self._n = len(trace)
        self._retire = 0.0
        self._instr = 0
        self._last_load_done = 0.0
        # (instruction index, retirement time) checkpoints at memory ops,
        # used to reconstruct the ROB-entry bound by linear interpolation.
        self._window = deque()
        self._width = model.width
        self._rob_size = model.rob_size
        self._retire_step = 1.0 / model.width
        self._access = hierarchy.access
        # Indexed by the hierarchy's level codes (L1/L2/LLC/DRAM = 0..3).
        self._hits = [0, 0, 0, 0]
        self._stats_floor = None

    @property
    def done(self):
        return self._pos >= self._n

    @property
    def time(self):
        """Current retirement time in cycles."""
        return self._retire

    @property
    def ops(self):
        """Memory operations executed so far."""
        return self._pos

    def advance(self):
        """Execute the next memory operation (and its preceding gap).

        Returns ``False`` when the trace is exhausted.
        """
        return self.run_ops_until(_INF, 1) == 1

    def run_ops(self, max_ops=None):
        """Execute up to ``max_ops`` memory operations (all, if ``None``).

        Returns the number of ops executed.
        """
        return self.run_ops_until(_INF, max_ops)

    def run_ops_until(self, horizon, max_ops=None, strict=False):
        """Execute memory ops until the retirement time passes ``horizon``.

        The one op body: before each op it checks the core's current
        retirement time against ``horizon`` and stops once the core is no
        longer the globally minimal one (an infinite horizon never stops).
        With ``strict=False`` the core keeps running while ``time <=
        horizon``; with ``strict=True`` it stops at ``time >= horizon`` —
        the scheduler sets ``strict`` when the competing core wins ties
        (smaller core index), so the interleave order matches a per-op
        ``(time, index)`` heap exactly.  The loop lives in one frame with
        every hot attribute bound to a local, which matters at millions of
        ops.

        ``max_ops`` additionally caps the batch (used to stop exactly on a
        warmup boundary).  Returns the number of ops executed; the op that
        *crosses* the horizon is executed (its cost was committed when the
        core was selected), matching per-op scheduling semantics.
        """
        pos = self._pos
        n = self._n
        end = n if max_ops is None else min(n, pos + max_ops)
        if pos >= end:
            return 0
        ops = self._ops
        if ops is None:
            ops = self._ops = _fuse_ops(self._trace)
        width = self._width
        rob_size = self._rob_size
        retire_step = self._retire_step
        access = self._access
        window = self._window
        window_append = window.append
        popleft = window.popleft
        hits = self._hits
        retire = self._retire
        instr = self._instr
        last_load_done = self._last_load_done
        start = pos
        while pos < end:
            if retire > horizon or (strict and retire == horizon):
                break
            gap, pc, addr, is_write, dep = ops[pos]
            pos += 1
            if gap:
                instr += gap
                retire += gap / width
            idx = instr
            instr += 1
            rob_idx = idx - rob_size
            if rob_idx <= 0:
                enter = idx / width
            else:
                while len(window) > 1 and window[1][0] <= rob_idx:
                    popleft()
                if not window or window[0][0] > rob_idx:
                    floor = rob_idx / width
                else:
                    base = window[0]
                    floor = base[1] + (rob_idx - base[0]) / width
                enter = idx / width
                if floor > enter:
                    enter = floor
            if dep and last_load_done > enter:
                enter = last_load_done
            latency, level = access(int(enter), pc, addr, is_write)
            if is_write:
                retire += retire_step
                if enter > retire:
                    retire = enter
            else:
                done = enter + latency
                retire += retire_step
                if done > retire:
                    retire = done
                last_load_done = done
            window_append((idx, retire))
            hits[level] += 1
        self._pos = pos
        self._retire = retire
        self._instr = instr
        self._last_load_done = last_load_done
        return pos - start

    def run(self):
        """Run to completion; returns the final :class:`CoreStats`."""
        self.run_ops()
        return self.finalize()

    def mark_stats_start(self):
        """Start the measured region here (end of warmup).

        Microarchitectural state (caches, predictors, DRAM queues) is
        untouched; only the baseline for instruction/cycle/hit accounting
        moves, mirroring the warmup-then-measure methodology of the paper's
        simulator.
        """
        self._stats_floor = (self._instr, self._retire, tuple(self._hits))

    def finalize(self):
        """Close out stats without requiring the trace to be exhausted.

        Idempotent: the raw per-level hit counters stay untouched inside
        the execution; each call recomputes the measured-region view.
        """
        stats = measured_stats(self._instr, self._pos, self._retire, self._hits, self._stats_floor)
        if self._stats_floor is None:
            self.stats = stats
        return stats


def measured_stats(instr, ops, retire, hits, floor=None):
    """:class:`CoreStats` of a core's measured region.

    ``instr``/``ops``/``retire``/``hits`` are the core's running counters
    (instructions, memory ops, retirement time, per-level hits) and
    ``floor`` their ``(instr, retire, hits)`` at the warmup boundary
    (:meth:`CoreExecution.mark_stats_start`), or ``None`` to measure the
    whole run.  The one definition both kernels report through.
    """
    if floor is None:
        floor = (0, 0.0, (0, 0, 0, 0))
    floor_instr, floor_retire, floor_hits = floor
    return CoreStats(
        instructions=instr - floor_instr,
        memory_ops=ops,
        cycles=max(retire - floor_retire, 1e-9),
        l1_hits=hits[0] - floor_hits[0],
        l2_hits=hits[1] - floor_hits[1],
        llc_hits=hits[2] - floor_hits[2],
        dram_hits=hits[3] - floor_hits[3],
    )


# -- the scheduler ------------------------------------------------------------
#
# ``interleave_two_level`` executes ops in global ``(retirement time, core
# index)`` order, so shared-LLC/DRAM contention resolves exactly as a
# per-op heap loop would (the parity tests in tests/test_mp_interleave.py
# pin it against that reference).  A single-thread run is its one-core
# case.  It is the spec of the compiled runs' scheduler,
# ``repro.kernel.execution.KernelDomain.interleave``, which runs the
# same loop in C with the same contract.
#
# ``stop_ops``/``on_stop`` implement warmup boundaries: ``on_stop(idx)``
# fires exactly once per core, at the moment core ``idx`` has executed
# ``stop_ops[idx]`` ops — *before* any further op executes, and immediately
# (before the first op) when the checkpoint is already met at entry, so a
# zero-op warmup measures the whole trace.  The callback may inspect
# ``executions[idx]`` (its ``time``/``ops``/stats); other cores' state is
# undefined while the scheduler runs.


def _fire_met_checkpoints(executions, stop_ops, on_stop):
    """Fire checkpoints already reached at entry; returns pending targets."""
    if stop_ops is None:
        return [None] * len(executions)
    pending = []
    for idx, ex in enumerate(executions):
        target = stop_ops[idx]
        if target is not None and ex.ops >= target:
            if on_stop is not None:
                on_stop(idx)
            target = None
        pending.append(target)
    return pending


def interleave_two_level(executions, stop_ops=None, on_stop=None):
    """Two-level batched interleave: pop min core, batch via run_ops_until.

    The minimum-``(time, index)`` core runs in one ``run_ops_until`` batch
    until its retirement time passes the second-smallest schedule entry
    (ties broken by core index, exactly as a per-op heap would) or its
    next warmup checkpoint.  Stopping a batch *early* can never reorder
    ops — the scheduler simply re-selects, degenerating to per-op order in
    the worst case — so correctness only requires never running *past* the
    horizon.
    """
    pending = _fire_met_checkpoints(executions, stop_ops, on_stop)
    sched = sorted((ex.time, idx) for idx, ex in enumerate(executions) if not ex.done)
    while sched:
        _, idx = sched.pop(0)
        ex = executions[idx]
        if sched:
            h_time, h_idx = sched[0]
            strict = idx > h_idx
        else:
            h_time = _INF
            strict = False
        target = pending[idx]
        max_ops = None if target is None else target - ex.ops
        ex.run_ops_until(h_time, max_ops=max_ops, strict=strict)
        if target is not None and ex.ops >= target:
            pending[idx] = None
            if on_stop is not None:
                on_stop(idx)
        if not ex.done:
            insort(sched, (ex.time, idx))
