"""Session-scoped experiment execution.

A :class:`Session` is the one object an experiment needs: it owns

- an :class:`~repro.engine.config.EngineConfig` view (explicit per-session
  overrides merged over the process-global knobs),
- the in-process memo layers (traces, runs, mixes — identity-stable:
  asking twice returns the *same* object), and
- a pluggable :class:`~repro.engine.backends.StoreBackend` for
  persistence.

Everything executes through :meth:`Session.run`: give it any mix of
:class:`~repro.engine.specs.RunSpec` / :class:`~repro.engine.specs.MixSpec`
/ :class:`~repro.engine.specs.TraceSpec` objects and it returns their
results **in input order**, computing only the misses — in parallel over
a process pool when ``jobs > 1``, sequentially in-process otherwise.
Results are bit-for-bit identical across all three paths (memo hit,
backend hit, fresh compute) and across sequential/parallel execution.

Two sessions never share memo state; they share persisted artifacts only
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
from repro.engine.config import EngineConfig, backend_for
from repro.engine.specs import SPEC_TYPES, MixSpec, RunSpec, TraceSpec


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
        trace_memo=None,
    ):
        self._jobs = None if jobs is None else max(1, int(jobs))
        self._cache_dir = None if cache_dir is None else Path(cache_dir)
        self._disk_cache = None if disk_cache is None else bool(disk_cache)
        self._shared_cache_dir = (
            None if shared_cache_dir is None else Path(shared_cache_dir)
        )
        self._explicit_backend = backend
        self._trace_memo = {} if trace_memo is None else trace_memo
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
        """The trace for a :class:`TraceSpec` (or ``workload, length``)."""
        if not isinstance(spec, TraceSpec):
            spec = TraceSpec(spec, length)
        return compute.produce_trace_with(spec, self.store, self._trace_memo)

    def run(self, specs, jobs=None):
        """Execute specs; returns results in input order.

        Accepts one spec (returns its result) or any iterable mixing
        :class:`RunSpec`, :class:`MixSpec` and :class:`TraceSpec`
        (returns a list).  Memo hits are served immediately; misses are
        deduplicated and executed — across a process pool when ``jobs``
        (or the session's configured ``jobs``) exceeds 1 — then merged
        back deterministically in input order.
        """
        single = isinstance(specs, SPEC_TYPES)
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
            computed = self._execute(unique_specs, jobs)
            for i in miss_indices:
                memo, key = slots[i]
                result = computed[positions[key]]
                memo[key] = result
                results[i] = result
        return results[0] if single else results

    def _memo_slot(self, spec):
        """(memo dict, key) pair for one spec."""
        if isinstance(spec, TraceSpec):
            return self._trace_memo, (spec.workload, spec.length)
        if isinstance(spec, RunSpec):
            return self._run_memo, spec.fingerprint()
        if isinstance(spec, MixSpec):
            return self._mix_memo, spec.fingerprint()
        raise TypeError(
            f"Session.run expects TraceSpec/RunSpec/MixSpec, got {type(spec).__name__}"
        )

    def _produce(self, spec):
        """Compute one spec through this session's backend (no memo)."""
        if isinstance(spec, TraceSpec):
            return compute.produce_trace_with(spec, self.store, self._trace_memo)
        if isinstance(spec, RunSpec):
            return compute.produce_run_with(spec, self.store, self._trace_memo)
        if isinstance(spec, MixSpec):
            return compute.produce_mix_with(spec, self.store)
        raise TypeError(
            f"Session.run expects TraceSpec/RunSpec/MixSpec, got {type(spec).__name__}"
        )

    def _execute(self, specs, jobs):
        """Execute deduplicated miss specs; sequential or pooled."""
        cfg = self.config()
        jobs = cfg.jobs if jobs is None else max(1, int(jobs))
        if jobs <= 1 or len(specs) <= 1:
            return [self._produce(spec) for spec in specs]
        workers = min(jobs, len(specs))
        backend = self._explicit_backend
        # A cross-process backend (filesystem-backed) travels to the
        # workers, which persist as they compute — exactly like the
        # config-derived store.  A process-local backend (e.g.
        # InMemoryBackend) would only be pickled into throwaway copies,
        # so keep it out of the pool and persist the returned results
        # here instead; the round-trip behaviour matches sequential
        # execution (traces built implicitly inside worker runs are not
        # returned, so only explicitly requested TraceSpecs persist).
        backend_is_shared = backend is not None and bool(
            getattr(backend, "shared_across_processes", False)
        )
        if backend is not None and not backend_is_shared:
            # A process-local backend cannot be consulted from workers, so
            # probe it here first and dispatch only the true misses.
            results = [compute.load_artifact(spec, backend) for spec in specs]
            todo = [spec for spec, hit in zip(specs, results) if hit is None]
        else:
            results = [None] * len(specs)
            todo = list(specs)
        computed = []
        produced_inline = False
        if len(todo) == 1:
            # One miss: no pool; _produce persists through self.store
            # itself, so the parent-side save loop below must not re-save.
            computed = [self._produce(todo[0])]
            produced_inline = True
        elif todo:
            try:
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(todo)),
                    initializer=_init_worker,
                    initargs=(
                        cfg,
                        backend if backend_is_shared else None,
                        # An explicit process-local backend also disables the
                        # workers' config-derived store: the parent session
                        # never touches that store, so neither may its workers.
                        backend is not None and not backend_is_shared,
                    ),
                ) as pool:
                    computed = list(pool.map(_worker_produce, todo))
            except BrokenProcessPool:
                # A worker *process* died (OOM kill, segfault, os._exit)
                # rather than raising — the pool cannot say which specs
                # finished, so recompute the batch sequentially.  Specs
                # the dead pool already persisted are store hits, so the
                # retry only pays for the genuinely lost work.  A spec
                # that raises an ordinary exception still propagates
                # unchanged (a clear error beats a silent retry loop).
                print(
                    "warning: a pool worker process died mid-sweep; "
                    "recomputing its specs sequentially",
                    file=sys.stderr,
                )
                computed = [self._produce(spec) for spec in todo]
        if backend is not None and not backend_is_shared and not produced_inline:
            for spec, result in zip(todo, computed):
                compute.save_artifact(spec, result, backend)
        fresh = iter(computed)
        return [hit if hit is not None else next(fresh) for hit in results]

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

#: The per-worker-process session, built by :func:`_init_worker`.
_WORKER_SESSION = None


def _init_worker(cfg, explicit_backend, no_store=False):
    """Propagate the parent session's resolved configuration into a worker.

    The worker gets the parent's *resolved* config explicitly (not
    ambient environment), so parent and workers agree on the store and
    write compatible artifacts.  A cross-process explicit backend object
    travels by pickle; ``no_store`` marks a parent whose explicit backend
    is process-local (the parent persists pool results itself, and the
    worker must not touch the config-derived store either).  The worker
    session shares the module-level trace memo so forked workers reuse
    traces the parent already built.
    """
    global _WORKER_SESSION
    _config.configure(
        jobs=1,
        cache_dir=cfg.cache_dir,
        disk_cache=cfg.disk_cache,
        shared_cache_dir=cfg.shared_cache_dir,
        kernel=cfg.kernel,
    )
    _WORKER_SESSION = Session(
        jobs=1,
        backend=explicit_backend,
        disk_cache=False if no_store else None,
        trace_memo=compute.TRACE_MEMO,
    )


def _worker_produce(spec):
    """Compute one spec inside a pool worker."""
    return _WORKER_SESSION._produce(spec)


# -- the default session -----------------------------------------------------

_DEFAULT_SESSION = None


def default_session():
    """The process-wide session backing the CLI and the figure drivers.

    Created lazily; resolves jobs/cache/backend dynamically from the
    global configuration on every use, so ``engine.configure()``, CLI
    flags and env changes take effect on the next call.  Its trace memo
    *is* ``compute.TRACE_MEMO``, which forked pool workers inherit.
    """
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = Session(trace_memo=compute.TRACE_MEMO)
    return _DEFAULT_SESSION
