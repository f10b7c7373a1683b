"""Simulation engine: sessions, persistent caching, parallel execution.

The engine sits between the figure drivers (``repro.experiments``) and
the raw simulators (``repro.cpu`` / ``repro.memory``).  Its public
surface is the **session API**:

- :class:`TraceSpec` / :class:`RunSpec` / :class:`MixSpec` — immutable
  specs that canonicalize one experiment and own its content-addressed
  fingerprint (workload/scheme/config + a source-code salt);
- :class:`Session` — owns an engine configuration, the in-process memo
  layers and a pluggable :class:`StoreBackend`; ``Session.run(specs)``
  executes any batch with deterministic input-order merge and optional
  process-pool fan-out;
- :class:`LocalDirBackend` / :class:`InMemoryBackend` /
  :class:`TieredBackend` — store backends (on-disk, ephemeral, and
  read-through local-over-shared for a mounted ``--shared-cache``
  directory).

Quick tour::

    from repro.engine import RunSpec, Session

    session = Session(cache_dir="/tmp/my-cache", jobs=4)
    base, res = session.run([
        RunSpec("cloud.bigbench", "none", 16000),
        RunSpec("cloud.bigbench", "spp+dspatch", 16000),
    ])
    print(res.ipc / base.ipc)

The process-global knobs (``configure``/``current_config``/
``active_store``) back the default session, which the CLI and the
figure drivers use.  See ``docs/api.md`` for the API and
``docs/engine.md`` for cache layout and determinism guarantees.
"""

from repro.engine.backends import (
    InMemoryBackend,
    LocalDirBackend,
    StoreBackend,
    TieredBackend,
)
from repro.engine.config import (
    EngineConfig,
    active_store,
    backend_for,
    configure,
    current_config,
    reset_config,
)
from repro.engine.fingerprint import (
    code_salt,
    fingerprint,
    mix_fingerprint,
    run_fingerprint,
    trace_fingerprint,
)
from repro.engine.session import Session, default_session
from repro.engine.specs import MixSpec, RunSpec, TraceSpec

__all__ = [
    "EngineConfig",
    "InMemoryBackend",
    "LocalDirBackend",
    "MixSpec",
    "RunSpec",
    "Session",
    "StoreBackend",
    "TieredBackend",
    "TraceSpec",
    "active_store",
    "backend_for",
    "code_salt",
    "configure",
    "current_config",
    "default_session",
    "fingerprint",
    "mix_fingerprint",
    "reset_config",
    "run_fingerprint",
    "trace_fingerprint",
]
