"""Session-scoped experiment execution.

A :class:`Session` is the one object an experiment needs: it owns

- an :class:`~repro.engine.config.EngineConfig` view (explicit per-session
  overrides merged over the process-global knobs),
- the in-process memo layers (traces, runs, mixes — identity-stable:
  asking twice returns the *same* object), and
- a pluggable :class:`~repro.engine.backends.StoreBackend` for
  persisting results.

Simulations execute through :meth:`Session.run`: give it any mix of
:class:`~repro.engine.specs.RunSpec` / :class:`~repro.engine.specs.MixSpec`
objects and it returns their results **in input order**, computing only
the misses — in parallel over a process pool when ``jobs > 1``,
sequentially in-process otherwise.  Results are bit-for-bit identical
across all three paths (memo hit, backend hit, fresh compute) and across
sequential/parallel execution.  A session keeps one trace memo:
:meth:`Session.trace`, every run and every core of a mix take their
traces from it; a trace is rebuilt on a memo miss and never stored.

The session is the only code that touches its store.  It probes the
store for every spec of a batch before anything runs, and saves every
result the batch computed; a pool worker is told only the kernel choice
and the directory the compiled kernel is built under, and returns what
it simulated.  A batch's results are on disk when :meth:`Session.run`
returns, even when it raises.  :class:`~repro.engine.backends.LocalDirBackend`
saves are write-behind: a sequentially computed result is saved at
once, so its fsyncs overlap the next spec's simulation, and a batch
waits for its writes before it returns.  No writer thread is alive at a
fork: a batch flushes before it starts a pool, and saves pooled results
once the pool has closed.

Two sessions never share memo state; they share persisted results only
if their backends point at the same store (a local directory, or a
mounted ``shared_cache_dir`` another host populated).  The **default
session** (:func:`default_session`) resolves its configuration
dynamically from :mod:`repro.engine.config` (env vars, ``configure()``,
CLI flags) and backs the CLI and figure drivers.
"""

import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

from repro.engine import compute
from repro.engine import config as _config
from repro.engine.backends import flush_writes
from repro.engine.config import EngineConfig, backend_for
from repro.engine.specs import SPEC_TYPES, RunSpec, TraceSpec
from repro.workloads.catalog import memoized_trace


class Session:
    """One isolated experiment-execution scope.

    All constructor arguments are optional overrides; anything left
    ``None`` falls through to the process-global configuration at *use*
    time (so the default session tracks ``configure()``/env changes).

    ``backend`` plugs in an explicit :class:`StoreBackend` — it wins over
    ``cache_dir``/``disk_cache``-derived stores entirely.  Pass
    ``disk_cache=False`` for a purely in-process session.
    """

    def __init__(
        self,
        *,
        jobs=None,
        cache_dir=None,
        disk_cache=None,
        shared_cache_dir=None,
        backend=None,
    ):
        self._jobs = None if jobs is None else max(1, int(jobs))
        self._cache_dir = None if cache_dir is None else Path(cache_dir)
        self._disk_cache = None if disk_cache is None else bool(disk_cache)
        self._shared_cache_dir = (
            None if shared_cache_dir is None else Path(shared_cache_dir)
        )
        self._explicit_backend = backend
        self._trace_memo = {}
        self._run_memo = {}
        self._mix_memo = {}

    # -- configuration -------------------------------------------------------

    def config(self):
        """The resolved :class:`EngineConfig` for this session, now."""
        base = _config.current_config()
        return EngineConfig(
            jobs=self._jobs if self._jobs is not None else base.jobs,
            cache_dir=self._cache_dir if self._cache_dir is not None else base.cache_dir,
            disk_cache=(
                self._disk_cache if self._disk_cache is not None else base.disk_cache
            ),
            shared_cache_dir=(
                self._shared_cache_dir
                if self._shared_cache_dir is not None
                else base.shared_cache_dir
            ),
            kernel=base.kernel,
        )

    @property
    def store(self):
        """The active :class:`StoreBackend`, or ``None`` (no persistence)."""
        if self._explicit_backend is not None:
            return self._explicit_backend
        return backend_for(self.config())

    # -- execution -----------------------------------------------------------

    def trace(self, spec, length=None):
        """The trace for a :class:`TraceSpec` (or ``workload, length``):
        the memo's copy, else a fresh build.  No store is consulted; the
        session's runs and mixes take their traces from the same memo."""
        if not isinstance(spec, TraceSpec):
            spec = TraceSpec(spec, length)
        return memoized_trace(self._trace_memo, spec.workload, spec.length, spec.copy)

    def run(self, specs, jobs=None):
        """Execute specs; returns results in input order.

        Accepts one spec (returns its result) or any iterable mixing
        :class:`RunSpec` and :class:`MixSpec` (returns a list); a
        :class:`TraceSpec` is a ``TypeError`` (traces come from
        :meth:`trace`).  Memo hits are served immediately; misses are
        deduplicated, probed in the store and the rest computed — across
        a process pool when ``jobs`` (or the session's configured
        ``jobs``) exceeds 1 — then merged back deterministically in input
        order.  Every result the batch computed is in the store when it
        returns or raises.
        """
        # A lone TraceSpec counts as one spec, so its TypeError names
        # Session.trace instead of complaining that it is not iterable.
        single = isinstance(specs, (*SPEC_TYPES, TraceSpec))
        spec_list = [specs] if single else list(specs)
        # Resolve each spec's (memo, key) slot once; fingerprints hash the
        # canonical config, so recomputing them per loop would be waste.
        slots = [self._memo_slot(spec) for spec in spec_list]
        results = [None] * len(spec_list)
        miss_indices = []
        for i, (memo, key) in enumerate(slots):
            if key in memo:
                results[i] = memo[key]
            else:
                miss_indices.append(i)
        if miss_indices:
            # Dedup repeated specs within one batch: compute once, fan the
            # result out to every position asking for it.
            positions = {}
            unique_specs = []
            for i in miss_indices:
                key = slots[i][1]
                if key not in positions:
                    positions[key] = len(unique_specs)
                    unique_specs.append(spec_list[i])
            try:
                computed = self._execute(unique_specs, jobs)
            finally:
                flush_writes()
            for i in miss_indices:
                memo, key = slots[i]
                result = computed[positions[key]]
                memo[key] = result
                results[i] = result
        return results[0] if single else results

    def _memo_slot(self, spec):
        """(memo dict, key) pair for one spec."""
        if not isinstance(spec, SPEC_TYPES):
            hint = "; ask Session.trace for a trace" if isinstance(spec, TraceSpec) else ""
            raise TypeError(
                f"Session.run expects RunSpec/MixSpec, got {type(spec).__name__}{hint}"
            )
        memo = self._run_memo if isinstance(spec, RunSpec) else self._mix_memo
        return memo, spec.fingerprint()

    def _execute(self, specs, jobs):
        """Execute deduplicated miss specs.  Only this process touches the
        store: it probes it for every spec, computes the misses (over a
        pool when ``jobs > 1`` and more than one missed) and saves each
        computed result."""
        cfg = self.config()
        jobs = cfg.jobs if jobs is None else max(1, int(jobs))
        store = self.store
        results = [compute.load_artifact(spec, store) for spec in specs]
        todo = [i for i, hit in enumerate(results) if hit is None]
        if jobs > 1 and len(todo) > 1:
            # No writer thread may be alive when the pool forks (probing a
            # tiered store may have queued a promotion).
            flush_writes()
            futures = _simulate_pooled([specs[i] for i in todo], min(jobs, len(todo)), cfg)
            failed = None
            for i, future in zip(todo, futures):
                exc = future.exception()
                if exc is None:
                    results[i] = future.result()
                    compute.save_artifact(specs[i], results[i], store)
                elif failed is None and not isinstance(exc, BrokenProcessPool):
                    failed = exc
            if failed is not None:
                # A spec that raises an ordinary exception propagates
                # unchanged (a clear error beats a silent retry loop).
                raise failed
            if any(results[i] is None for i in todo):
                # A worker *process* died (OOM kill, segfault, os._exit)
                # rather than raising: the specs it lost are recomputed
                # below, sequentially.
                print(
                    "warning: a pool worker process died mid-sweep; "
                    "recomputing its specs sequentially",
                    file=sys.stderr,
                )
        for i in todo:
            if results[i] is None:
                # Saved at once, so its durable write overlaps the next spec.
                results[i] = compute.simulate(specs[i], self._trace_memo)
                compute.save_artifact(specs[i], results[i], store)
        return results

    # -- maintenance ---------------------------------------------------------

    def clear(self, memory=True, disk=True):
        """Drop cached artifacts: the memo layers and/or the backend."""
        if memory:
            self._trace_memo.clear()
            self._run_memo.clear()
            self._mix_memo.clear()
        if disk:
            store = self.store
            if store is not None:
                store.clear()

    def memo_stats(self):
        """Entry counts of the in-process memo layers (tests, tooling)."""
        return {
            "traces": len(self._trace_memo),
            "runs": len(self._run_memo),
            "mixes": len(self._mix_memo),
        }


# -- pool worker plumbing ----------------------------------------------------


def _simulate_pooled(specs, workers, cfg):
    """Simulate ``specs`` over a new process pool; returns the finished
    future of every spec the pool took, once the pool has closed.  A pool
    that broke before it took them all returns the futures it took."""
    futures = []
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(cfg.kernel, cfg.cache_dir),
        ) as pool:
            for spec in specs:
                futures.append(pool.submit(_worker_simulate, spec))
    except BrokenProcessPool:
        pass
    return futures


def _init_worker(kernel, cache_dir):
    """Give a pool worker the parent's kernel choice and the cache
    directory its compiled kernel is built under; a worker never sees
    the store."""
    _config.configure(kernel=kernel, cache_dir=cache_dir)


def _worker_simulate(spec):
    """One spec's result, computed in a pool worker.  Forked workers
    inherit the default session, so they start with its trace memo."""
    return compute.simulate(spec, default_session()._trace_memo)


# -- the default session -----------------------------------------------------

_DEFAULT_SESSION = None


def default_session():
    """The process-wide session backing the CLI and the figure drivers.

    Created lazily; resolves jobs/cache/backend dynamically from the
    global configuration on every use, so ``engine.configure()``, CLI
    flags and env changes take effect on the next call.  Forked pool
    workers inherit it, and with it the traces it has built.
    """
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = Session()
    return _DEFAULT_SESSION
