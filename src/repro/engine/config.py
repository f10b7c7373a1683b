"""Engine configuration: parallelism, cache location, store backend.

Resolution order for every knob:

1. an explicit :func:`configure` call (the CLI flags land here);
2. environment variables (``REPRO_JOBS``, ``REPRO_CACHE_DIR``,
   ``REPRO_NO_CACHE``, ``REPRO_SHARED_CACHE``, ``REPRO_KERNEL``);
3. built-in defaults (sequential, ``~/.cache/dspatch-repro``, disk cache
   enabled, no shared tier, ``auto`` kernel).

Environment variables are read lazily at each :func:`current_config`
call (not at import), so test fixtures can repoint the cache directory
before any simulation runs.

These process-global knobs back the **default session** (and the
figure drivers).  Explicitly constructed
:class:`repro.engine.session.Session` objects can override any of them
per session — including plugging in a whole
:class:`repro.engine.backends.StoreBackend` — without touching this
module.  Where artifacts live is decided in one place,
:func:`backend_for`.
"""

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.engine.backends import LocalDirBackend, TieredBackend

#: Explicit overrides set via :func:`configure`; ``None`` = use env/default.
_overrides = {
    "jobs": None,
    "cache_dir": None,
    "disk_cache": None,
    "shared_cache_dir": None,
    "kernel": None,
}

#: Valid hot-loop kernel selections (``repro run --kernel`` / REPRO_KERNEL).
KERNEL_CHOICES = ("auto", "compiled", "object")


@dataclass(frozen=True)
class EngineConfig:
    """Resolved engine settings."""

    #: Worker processes for independent runs; 1 = in-process sequential.
    jobs: int
    #: Root directory of the on-disk result store.
    cache_dir: Path
    #: Whether the disk layer is consulted/written at all.
    disk_cache: bool
    #: Optional read-only shared store root layered under the local one
    #: (read-through: shared hits are promoted into the local tier).
    shared_cache_dir: Optional[Path] = None
    #: Hot-loop kernel for eligible runs: ``auto`` picks the compiled
    #: kernel when a C toolchain is present and falls back to the object
    #: model otherwise; ``object`` forces the object model.  Deliberately
    #: NOT part of spec fingerprints — both are bit-identical, so results
    #: share cache entries.
    kernel: str = "auto"


def _default_cache_dir():
    return Path(os.environ.get("REPRO_CACHE_DIR") or Path.home() / ".cache" / "dspatch-repro")


def current_config():
    """The active :class:`EngineConfig` (overrides > env > defaults)."""
    jobs = _overrides["jobs"]
    if jobs is None:
        try:
            jobs = int(os.environ.get("REPRO_JOBS", "1"))
        except ValueError:
            jobs = 1
    cache_dir = _overrides["cache_dir"] or _default_cache_dir()
    disk_cache = _overrides["disk_cache"]
    if disk_cache is None:
        disk_cache = os.environ.get("REPRO_NO_CACHE", "") != "1"
    shared = _overrides["shared_cache_dir"]
    if shared is None:
        env_shared = os.environ.get("REPRO_SHARED_CACHE")
        shared = Path(env_shared) if env_shared else None
    kernel = _overrides["kernel"]
    if kernel is None:
        kernel = os.environ.get("REPRO_KERNEL") or "auto"
        if kernel not in KERNEL_CHOICES:
            raise ValueError(
                f"REPRO_KERNEL={kernel!r} is not one of {KERNEL_CHOICES}"
            )
    return EngineConfig(
        jobs=max(1, jobs),
        cache_dir=Path(cache_dir),
        disk_cache=disk_cache,
        shared_cache_dir=shared,
        kernel=kernel,
    )


def configure(
    jobs=None,
    cache_dir=None,
    disk_cache=None,
    shared_cache_dir=None,
    kernel=None,
):
    """Set explicit engine overrides; ``None`` leaves a knob untouched."""
    if jobs is not None:
        _overrides["jobs"] = int(jobs)
    if kernel is not None:
        if kernel not in KERNEL_CHOICES:
            raise ValueError(f"kernel must be one of {KERNEL_CHOICES}, got {kernel!r}")
        _overrides["kernel"] = str(kernel)
    if cache_dir is not None:
        _overrides["cache_dir"] = Path(cache_dir)
    if disk_cache is not None:
        _overrides["disk_cache"] = bool(disk_cache)
    if shared_cache_dir is not None:
        _overrides["shared_cache_dir"] = Path(shared_cache_dir)


def reset_config():
    """Drop all explicit overrides (tests)."""
    for key in _overrides:
        _overrides[key] = None


def backend_for(config):
    """Build the :class:`StoreBackend` a resolved config describes.

    ``None`` when the disk layer is disabled; a plain
    :class:`LocalDirBackend` normally; a read-through
    :class:`TieredBackend` (local over shared) when a shared tier is
    configured.  ``disk_cache=False`` wins over the shared tier too: the
    contract of ``--no-cache`` is "this invocation touches no store at
    all", and there would be no local tier to promote into.
    """
    if not config.disk_cache:
        return None
    store = LocalDirBackend(config.cache_dir)
    if config.shared_cache_dir is not None:
        # touch_on_load=False: readers must not rewrite mtimes on the
        # shared mount (its owner's LRU eviction order is not ours).
        shared = LocalDirBackend(config.shared_cache_dir, touch_on_load=False)
        store = TieredBackend(store, shared)
    return store


def active_store():
    """The store backend for the current global config, or ``None`` if
    the disk layer is disabled."""
    return backend_for(current_config())
